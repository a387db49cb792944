//! `contents_hash` under an undo journal resumes from a checkpoint at the
//! journal's first dirty row. Whatever a trial does, and however many
//! trials ran before it, the hash must equal the definition: wordwise
//! FNV-1a 64 over a whole-capacity `peek`. Every scenario runs on several
//! row sizes, including ones that are not a multiple of 8 (so words
//! straddle rows and checkpoints carry a partial word).
//!
//! Compact rows of zeros or ones — all-ones and all-zero rows, and every
//! never-materialized row — feed the hash from their bit lists, dense rows
//! from their bytes; the compact-row scenarios mix both kinds under
//! writes inside a trial, changes outside one, a remap and a fork.

mod common;

use common::reference_contents_hash;
use cta_dram::{AddressMapping, CellLayout, CellType, DramConfig, DramGeometry, DramModule, RowId};

const ROWS: u64 = 64;

/// A module with distinct contents in most rows (every fifth row is left
/// unmaterialized), so any row that hashes at the wrong place or from
/// stale contents changes the result. Cell type alternates every 8 rows,
/// true first.
fn parent(row_bytes: u64) -> DramModule {
    let mut m = DramModule::new(DramConfig {
        geometry: DramGeometry::new(row_bytes, ROWS, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        ..DramConfig::small_test()
    });
    for row in (0..ROWS).filter(|row| row % 5 != 3) {
        poke(&mut m, row, row as u8 + 1);
    }
    m
}

/// Writes `byte` at the first and last column of `row`.
fn poke(m: &mut DramModule, row: u64, byte: u8) {
    let row_bytes = m.geometry().row_bytes();
    m.write(row * row_bytes, &[byte]).unwrap();
    m.write(row * row_bytes + row_bytes - 1, &[byte ^ 0x5A]).unwrap();
}

/// Runs `scenario` on a fresh parent for every row size.
fn for_each_parent(scenario: impl Fn(&mut DramModule)) {
    for row_bytes in [4096u64, 64, 4, 1] {
        scenario(&mut parent(row_bytes));
    }
}

#[track_caller]
fn check(m: &DramModule, what: &str) {
    assert_eq!(
        m.contents_hash(),
        reference_contents_hash(m),
        "{what}: {}-byte rows",
        m.geometry().row_bytes()
    );
}

/// A trial that dirties nothing: hashing it builds every checkpoint.
fn clean_trial(m: &mut DramModule) {
    m.journal_begin();
    check(m, "clean trial");
    m.journal_rollback();
}

#[test]
fn first_and_second_trials_on_a_parent() {
    for_each_parent(|m| {
        let base = reference_contents_hash(m);
        m.journal_begin();
        poke(m, 40, 0xA1);
        check(m, "first trial");
        m.journal_rollback();
        check(m, "after the first rollback");
        assert_eq!(m.contents_hash(), base);

        // Reuses the checkpoints below row 40 and builds up to row 50.
        m.journal_begin();
        poke(m, 50, 0xB2);
        check(m, "second trial");
        m.journal_rollback();
        assert_eq!(m.contents_hash(), base);
    });
}

#[test]
fn a_trial_that_dirties_nothing() {
    for_each_parent(|m| {
        let base = reference_contents_hash(m);
        clean_trial(m);
        m.journal_begin();
        // Peeks and hashes change nothing; the checkpoint past the last
        // row is the whole hash.
        m.peek(0, 16).unwrap();
        assert_eq!(m.contents_hash(), base);
        assert_eq!(m.contents_hash(), base);
        m.journal_rollback();
    });
}

#[test]
fn a_trial_that_dirties_row_zero() {
    for_each_parent(|m| {
        clean_trial(m);
        m.journal_begin();
        poke(m, 0, 0xC3);
        check(m, "row 0 dirty");
        m.journal_rollback();
        check(m, "after rollback");
    });
}

#[test]
fn a_trial_that_dirties_below_the_built_prefix() {
    for_each_parent(|m| {
        // Build checkpoints only up to row 60.
        m.journal_begin();
        poke(m, 60, 0xD4);
        check(m, "prefix to row 60");
        m.journal_rollback();

        // A later trial dirties a row under that prefix.
        m.journal_begin();
        poke(m, 10, 0xE5);
        check(m, "row 10 in a later trial");
        m.journal_rollback();

        // Within one trial: hash, then dirty a lower row, hash again.
        m.journal_begin();
        poke(m, 30, 0xF6);
        check(m, "row 30");
        poke(m, 7, 0x17);
        check(m, "row 7 after row 30");
        poke(m, 63, 0x28);
        check(m, "last row too");
        m.journal_rollback();
        check(m, "after rollback");
    });
}

#[test]
fn remaps_inside_a_journal_dirty_every_row_they_move() {
    for_each_parent(|m| {
        // Rows 4, 20 and 52 are true-cell rows; 30 and 62 anti-cell rows.
        m.remap_row(RowId(20), RowId(4)).unwrap();
        let base = reference_contents_hash(m);
        clean_trial(m);

        // Re-remapping 20 releases spare 4, which sits below both rows of
        // the new swap and now reads its own storage again.
        m.journal_begin();
        m.remap_row(RowId(20), RowId(52)).unwrap();
        assert_ne!(reference_contents_hash(m), base, "the remap must change the contents");
        check(m, "re-remap releasing a lower spare");
        m.journal_rollback();
        assert_eq!(m.contents_hash(), base);

        // A fresh swap whose spare is the lower row, after a write above.
        m.journal_begin();
        poke(m, 63, 0x39);
        check(m, "row 63");
        m.remap_row(RowId(62), RowId(30)).unwrap();
        check(m, "remap onto a lower spare");
        m.journal_rollback();
        check(m, "after rollback");
        assert_eq!(m.contents_hash(), base);
    });
}

#[test]
fn power_off_inside_a_journal() {
    for_each_parent(|m| {
        // Charged cells of both polarities, so decay flips some bits.
        for row in [2u64, 9, 33, 41] {
            let row_bytes = m.geometry().row_bytes();
            m.fill(row * row_bytes, row_bytes as usize, 0xFF).unwrap();
        }
        let base = reference_contents_hash(m);
        clean_trial(m);
        m.journal_begin();
        check(m, "before power-off");
        m.power_off_at_temperature(20_000_000_000, 2.0);
        assert_ne!(reference_contents_hash(m), base, "power-off must decay cells");
        check(m, "after power-off");
        m.journal_rollback();
        assert_eq!(m.contents_hash(), base);
    });
}

#[test]
fn unjournaled_changes_between_journals_invalidate_checkpoints() {
    type Change = fn(&mut DramModule);
    let changes: [(&str, Change); 4] = [
        ("write", |m| poke(m, 2, 0x4A)),
        ("fill", |m| {
            let row_bytes = m.geometry().row_bytes();
            m.fill(row_bytes, row_bytes as usize, 0x6B).unwrap();
        }),
        ("remap_row", |m| m.remap_row(RowId(2), RowId(18)).unwrap()),
        ("power_off", |m| {
            // Charge row 0, then rebuild the checkpoints the fill cleared,
            // so the power-off alone must invalidate them.
            let row_bytes = m.geometry().row_bytes();
            m.fill(0, row_bytes as usize, 0xFF).unwrap();
            clean_trial(m);
            m.power_off(20_000_000_000);
        }),
    ];
    for (name, change) in changes {
        for_each_parent(|m| {
            clean_trial(m);
            let before = reference_contents_hash(m);
            change(m);
            assert_ne!(reference_contents_hash(m), before, "{name} must change the contents");
            check(m, name);
            m.journal_begin();
            poke(m, 60, 0x7C);
            check(m, &format!("trial after an unjournaled {name}"));
            m.journal_rollback();
            clean_trial(m);
        });
    }
}

#[test]
fn forks_of_a_checkpointed_parent() {
    for_each_parent(|m| {
        clean_trial(m);
        let base = reference_contents_hash(m);
        let mut child = m.fork();
        check(&child, "fresh fork");
        child.journal_begin();
        poke(&mut child, 60, 0x8D);
        check(&child, "trial on the fork");
        child.journal_rollback();

        // The fork changes a low row outside any journal; neither side
        // may hash from checkpoints of the other's contents.
        poke(&mut child, 1, 0x9E);
        child.journal_begin();
        poke(&mut child, 61, 0xAF);
        check(&child, "trial on the changed fork");
        child.journal_rollback();

        m.journal_begin();
        poke(m, 61, 0xB0);
        check(m, "trial on the parent after the fork");
        m.journal_rollback();
        assert_eq!(m.contents_hash(), base);
    });
}

/// Rows of the compact parent past the poked ones: two compact all-ones
/// rows, a compact all-zero row, and two dense rows of mixed bytes.
const ONES_ROWS: [u64; 2] = [44, 45];
const ZERO_ROW: u64 = 46;
const DENSE_ROWS: [u64; 2] = [47, 57];

/// [`parent`] plus every kind of row the hash feeds differently: compact
/// rows of ones and of zeros (from their bit lists, as are the
/// never-materialized rows) and dense rows (from their bytes).
fn compact_parent(row_bytes: u64) -> DramModule {
    let mut m = parent(row_bytes);
    let len = row_bytes as usize;
    for row in ONES_ROWS {
        m.fill(row * row_bytes, len, 0xFF).unwrap();
    }
    m.fill(ZERO_ROW * row_bytes, len, 0x00).unwrap();
    for row in DENSE_ROWS {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + row as usize) as u8 | 1).collect();
        m.write(row * row_bytes, &bytes).unwrap();
    }
    m
}

/// One trial that dirties `row` (so every row above it hashes clean) and
/// checks its hash.
fn trial_dirtying(m: &mut DramModule, row: u64, what: &str) {
    m.journal_begin();
    poke(m, row, 0x3C);
    check(m, what);
    m.journal_rollback();
}

/// Runs `scenario` on a fresh compact parent for every row size: on 4- and
/// 1-byte rows, of partial words, compact rows hash from their bytes.
fn for_each_compact_parent(scenario: impl Fn(&mut DramModule)) {
    for row_bytes in [4096u64, 64, 4, 1] {
        scenario(&mut compact_parent(row_bytes));
    }
}

#[test]
fn repeat_trials_hash_the_compact_rows_past_the_dirty_one() {
    for_each_compact_parent(|m| {
        let base = reference_contents_hash(m);
        trial_dirtying(m, 0, "first trial");
        trial_dirtying(m, 0, "second trial");
        m.journal_begin();
        poke(m, 0, 0x3C);
        check(m, "third trial");
        m.journal_rollback();
        assert_eq!(m.contents_hash(), base);
    });
}

#[test]
fn a_compact_row_written_in_a_trial_hashes_from_its_bytes() {
    for_each_compact_parent(|m| {
        let base = reference_contents_hash(m);
        trial_dirtying(m, 0, "first trial");
        trial_dirtying(m, 0, "second trial");
        // Writes over a dense row, an all-ones row and the all-zero row:
        // each is saved and hashes from its new bytes, and rollback
        // restores the compact rows.
        m.journal_begin();
        poke(m, 0, 0x3C);
        for row in [40, ONES_ROWS[0], ZERO_ROW] {
            poke(m, row, 0x4D);
        }
        check(m, "writes over compact rows");
        m.journal_rollback();
        trial_dirtying(m, 0, "trial after the rollback");
        assert_eq!(m.contents_hash(), base);
    });
}

#[test]
fn a_compact_row_changed_outside_a_journal_hashes_its_new_contents() {
    for_each_compact_parent(|m| {
        trial_dirtying(m, 0, "first trial");
        trial_dirtying(m, 0, "second trial");
        // Outside a journal a write changes the rows for good: neither may
        // feed the hash from its old contents.
        poke(m, 40, 0x5E);
        let row_bytes = m.geometry().row_bytes();
        m.fill(ONES_ROWS[1] * row_bytes, 8, 0x00).unwrap();
        trial_dirtying(m, 0, "first trial after the writes");
        trial_dirtying(m, 0, "second trial after the writes");
        trial_dirtying(m, 0, "third trial after the writes");
    });
}

#[test]
fn compact_rows_under_a_remap_and_a_fork() {
    for_each_compact_parent(|m| {
        let base = reference_contents_hash(m);
        trial_dirtying(m, 0, "first trial");
        trial_dirtying(m, 0, "second trial");
        // Rows 20 and 52 are both true-cell rows: after the swap each
        // logical row feeds the other's contents.
        m.journal_begin();
        poke(m, 0, 0x3C);
        m.remap_row(RowId(20), RowId(52)).unwrap();
        check(m, "remap between clean rows");
        m.remap_row(RowId(ONES_ROWS[0]), RowId(DENSE_ROWS[1])).unwrap();
        check(m, "remap of an all-ones row onto a dense one");
        m.journal_rollback();
        assert_eq!(m.contents_hash(), base);

        // A fork shares the compact rows with its parent.
        let mut child = m.fork();
        trial_dirtying(&mut child, 0, "trial on the fork");
        poke(&mut child, 30, 0x6F);
        trial_dirtying(&mut child, 0, "fork after a change");
        trial_dirtying(m, 0, "parent after the fork changed");
    });
}
