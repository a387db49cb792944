//! Randomized op-sequence fuzz of the DRAM undo journal.
//!
//! The rollback invariant: for *any* trial body, `journal_begin` →
//! ops → `journal_rollback` leaves the module observably identical to a
//! module that never ran the trial. The proptest below drives a random
//! interleaving of every journaled mutation class — writes, fills,
//! hammering, reads (charge touches), clock advances, refresh
//! enable/disable, decay windows, row remapping, flip-log drains and
//! capacity changes, power-off remanence, neighbor refreshes, and rows
//! registered with a defense — against a reference fork taken before the
//! journal opened, then compares:
//!
//! * the full contents fingerprint (wordwise FNV-1a over a full peek),
//! * the simulated clock, statistics, remap table, and materialization
//!   footprint,
//! * the activation counters and the installed defense's accounting and
//!   counters,
//! * and, to expose charge-plane divergence that identical contents could
//!   mask, the contents again after an identical decay probe (refresh
//!   off, clock past the retention horizon) applied to both modules.
//!
//! Each case runs undefended, under SoftTRR or under BlockHammer, with
//! thresholds low enough that the fuzzed hammering trips them, so the
//! defense-issued targeted refreshes and throttles are fuzzed too.
//!
//! Two journals run back to back on the same module, so the second trial
//! hashes from checkpoints the first one built. The module's own
//! `contents_hash` — checkpointed under a journal — must equal the
//! reference hash of a full peek mid-sequence, after each sequence and
//! after each rollback.
//!
//! The deterministic tests at the end pin partial-decay windows, whose
//! long-cell lists outlive a rollback in the row-map store a module shares
//! with its forks: neither a later trial nor a fork may see them.

mod common;

use common::reference_contents_hash;
use cta_dram::{
    BlockHammerDefense, BlockHammerParams, DisturbanceParams, DramConfig, DramModule, RowId,
    SoftTrrDefense, SoftTrrParams,
};
use cta_telemetry::Counters;
use proptest::prelude::*;

/// One randomized mutation. Parameters are raw and clamped at apply time
/// so every generated sequence is valid.
#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, byte: u8, len: u8 },
    Fill { addr: u64, byte: u8, len: u8 },
    WriteU64 { addr: u64, value: u64 },
    Read { addr: u64, len: u8 },
    HammerDouble { row: u64 },
    Hammer { row: u64, count: u16 },
    Advance { ns: u32 },
    DisableRefresh,
    EnableRefresh,
    Remap { faulty: u64, spare: u64 },
    TakeFlipLog,
    SetFlipLogCapacity { capacity: u8 },
    PowerOff { ns: u32 },
    RefreshNeighbors { row: u64 },
    ProtectRow { row: u64 },
    ContentsHash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), any::<u8>(), any::<u8>()).prop_map(|(addr, byte, len)| Op::Write {
            addr,
            byte,
            len
        }),
        (any::<u64>(), any::<u8>(), any::<u8>()).prop_map(|(addr, byte, len)| Op::Fill {
            addr,
            byte,
            len
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(addr, value)| Op::WriteU64 { addr, value }),
        (any::<u64>(), any::<u8>()).prop_map(|(addr, len)| Op::Read { addr, len }),
        any::<u64>().prop_map(|row| Op::HammerDouble { row }),
        (any::<u64>(), any::<u16>()).prop_map(|(row, count)| Op::Hammer { row, count }),
        any::<u32>().prop_map(|ns| Op::Advance { ns }),
        Just(Op::DisableRefresh),
        Just(Op::EnableRefresh),
        (any::<u64>(), any::<u64>()).prop_map(|(faulty, spare)| Op::Remap { faulty, spare }),
        Just(Op::TakeFlipLog),
        any::<u8>().prop_map(|capacity| Op::SetFlipLogCapacity { capacity }),
        any::<u32>().prop_map(|ns| Op::PowerOff { ns }),
        any::<u64>().prop_map(|row| Op::RefreshNeighbors { row }),
        any::<u64>().prop_map(|row| Op::ProtectRow { row }),
        Just(Op::ContentsHash),
    ]
}

fn apply(m: &mut DramModule, op: &Op) {
    let capacity = m.capacity_bytes();
    let rows = m.geometry().total_rows();
    match op {
        Op::Write { addr, byte, len } => {
            let len = (*len as u64 % 64 + 1).min(capacity) as usize;
            let addr = addr % (capacity - len as u64);
            m.write(addr, &vec![*byte; len]).expect("in-bounds write");
        }
        Op::Fill { addr, byte, len } => {
            let len = (*len as u64 % 256 + 1).min(capacity) as usize;
            let addr = addr % (capacity - len as u64);
            m.fill(addr, len, *byte).expect("in-bounds fill");
        }
        Op::WriteU64 { addr, value } => {
            let addr = (addr % (capacity - 8)) & !7;
            m.write_u64(addr, *value).expect("in-bounds write_u64");
        }
        Op::Read { addr, len } => {
            let len = (*len as u64 % 64 + 1).min(capacity) as usize;
            let addr = addr % (capacity - len as u64);
            m.read(addr, len).expect("in-bounds read");
        }
        Op::HammerDouble { row } => {
            m.hammer_double_sided(RowId(row % rows)).expect("valid victim");
        }
        Op::Hammer { row, count } => {
            m.hammer(RowId(row % rows), u64::from(*count) % 512 + 1).expect("valid row");
        }
        Op::Advance { ns } => m.advance(u64::from(*ns) % 10_000_000),
        Op::DisableRefresh => m.disable_refresh(),
        Op::EnableRefresh => m.enable_refresh(),
        Op::Remap { faulty, spare } => {
            let faulty = RowId(faulty % rows);
            let spare = RowId(spare % rows);
            // Remapping can legitimately refuse (same row, already
            // remapped, cell-type mismatch); rejection mutates nothing.
            let _ = m.remap_row(faulty, spare);
        }
        Op::TakeFlipLog => {
            m.take_flip_log();
        }
        Op::SetFlipLogCapacity { capacity } => {
            m.set_flip_log_capacity(*capacity as usize % 128 + 1);
        }
        Op::PowerOff { ns } => m.power_off(u64::from(*ns) % 5_000_000_000),
        Op::RefreshNeighbors { row } => {
            m.refresh_neighbors_of(RowId(row % rows)).expect("valid row");
        }
        Op::ProtectRow { row } => m.defense_protect_row(RowId(row % rows)).expect("valid row"),
        // Hashing mid-trial builds checkpoints that later ops may dirty.
        Op::ContentsHash => {
            assert_eq!(m.contents_hash(), reference_contents_hash(m), "mid-trial contents hash");
        }
    }
}

/// Everything cheaply observable about a module, as one comparable blob.
fn observe(m: &DramModule) -> (u64, u64, String, usize, usize, String) {
    (
        reference_contents_hash(m),
        m.now_ns(),
        format!("{:?}|{:?}", m.stats(), m.remap_table()),
        m.rows_materialized(),
        m.remap_table().len(),
        format!(
            "{:?}|{:?}|{:?}",
            m.hottest_rows(m.geometry().total_rows() as usize),
            m.defense_stats(),
            m.defense_snapshot().map(|d| d.counters),
        ),
    )
}

/// Installs no defense (0), SoftTRR (1) or BlockHammer (2), with
/// thresholds the fuzzed bursts of up to 512 activations cross; SoftTRR
/// guards rows 2 and 9 from the start.
fn install_defense(m: &mut DramModule, defense: u8) {
    match defense {
        1 => {
            m.install_defense(Box::new(SoftTrrDefense::new(SoftTrrParams { trr_threshold: 256 })));
            for row in [2, 9] {
                m.defense_protect_row(RowId(row)).expect("valid row");
            }
        }
        2 => m.install_defense(Box::new(BlockHammerDefense::new(BlockHammerParams {
            blacklist_threshold: 256,
        }))),
        _ => {}
    }
}

proptest! {
    // Each case builds two small modules and replays a full op sequence;
    // 48 cases keeps the suite under a few seconds while still covering
    // thousands of op interleavings across runs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollback_restores_the_module_for_any_op_sequence(
        seed in any::<u64>(),
        defense in 0u8..3,
        ops in proptest::collection::vec(op_strategy(), 1..40),
        next_ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let cfg = DramConfig::small_test()
            .with_seed(seed)
            .with_disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() });
        let mut m = DramModule::new(cfg);
        install_defense(&mut m, defense);
        // Pre-trial state with some materialized rows and history, so
        // rollback must restore *dirty* pre-images, not just blanks.
        m.fill(0, 4096, 0x5A).expect("prefill");
        m.hammer_double_sided(RowId(1)).expect("prehammer");
        let reference = m.fork();
        let before = observe(&m);

        for (trial, ops) in [&ops, &next_ops].into_iter().enumerate() {
            m.journal_begin();
            for op in ops {
                apply(&mut m, op);
            }
            prop_assert_eq!(
                m.contents_hash(),
                reference_contents_hash(&m),
                "contents hash after trial {}'s sequence",
                trial
            );
            m.journal_rollback();
            prop_assert_eq!(m.contents_hash(), reference_contents_hash(&m));
            prop_assert_eq!(
                observe(&m),
                before.clone(),
                "rollback must restore the pre-trial observation"
            );
        }

        // Decay probe: identical futures prove the charge plane (which
        // identical contents alone could mask) was restored too. Reads —
        // not peeks — force decay to apply, so any last_charge_ns
        // divergence shows up as different decay flips.
        let horizon = 3 * 64_000_000; // well past the retention window
        let probe = |m: &mut DramModule| {
            m.disable_refresh();
            m.advance(horizon);
            let capacity = m.capacity_bytes();
            let row_bytes = m.geometry().row_bytes() as usize;
            let mut contents = Vec::with_capacity(capacity as usize);
            let mut addr = 0u64;
            while addr < capacity {
                let take = row_bytes.min((capacity - addr) as usize);
                contents.extend(m.read(addr, take).expect("in-bounds read"));
                addr += take as u64;
            }
            (contents, m.stats().clone())
        };
        // The probe above stays inside the shortest retention time, so a
        // power-off into the partial-decay range probes the charge plane
        // too: it decays each row from its own charge timestamp, and a
        // timestamp off by a trial's few milliseconds flips different cells.
        let outage = |m: &DramModule| {
            let mut m = m.fork();
            let p = m.config().retention;
            m.power_off((p.min_ns + p.max_ns) / 2);
            (reference_contents_hash(&m), m.stats().decay_flips)
        };
        prop_assert_eq!(outage(&m), outage(&reference), "partial-decay outage diverged");
        let mut reference = reference;
        let expected = probe(&mut reference);
        let actual = probe(&mut m);
        prop_assert_eq!(actual.0, expected.0, "decay probe contents diverged");
        prop_assert_eq!(actual.1, expected.1, "decay probe stats diverged");
    }
}

/// A module with every row materialized all-ones, its model caches
/// optionally bounded to fewer rows than the default.
fn decay_parent(cache_rows: Option<usize>) -> DramModule {
    let mut m = DramModule::new(DramConfig::small_test());
    if let Some(rows) = cache_rows {
        m.set_model_cache_capacity(rows);
    }
    m.fill(0, m.capacity_bytes() as usize, 0xFF).expect("whole-module fill");
    m
}

/// Partial-decay windows (refresh off for `min_ns ≤ elapsed < max_ns`)
/// over every row, one per elapsed value.
fn decay_windows(m: &mut DramModule, fractions: &[u64]) {
    let p = m.config().retention;
    for &f in fractions {
        m.disable_refresh();
        m.advance(p.min_ns + (p.max_ns - p.min_ns) * f / 8);
        m.enable_refresh();
    }
}

/// Two distinct windows: the second looks up every row's long-cell list
/// again, a repeat the accounting already holds unless a bound evicted it.
const TWO_WINDOWS: [u64; 2] = [2, 4];

/// Contents hash (checkpointed and by definition), clock, and telemetry.
fn observe_decay(m: &DramModule) -> (u64, u64, u64, String) {
    let mut counters = Counters::new("decay");
    counters.record(m.stats());
    (m.contents_hash(), reference_contents_hash(m), m.now_ns(), counters.to_json())
}

#[test]
fn partial_decay_windows_under_a_journal_leave_no_trace() {
    // A bound of eight long-cell lists for 64 rows, so the windows evict
    // most of them.
    for cache_rows in [None, Some(8)] {
        let mut parent = decay_parent(cache_rows);
        let before = observe_decay(&parent);

        parent.journal_begin();
        decay_windows(&mut parent, &TWO_WINDOWS);
        let trial = observe_decay(&parent);
        parent.journal_rollback();
        assert_eq!(observe_decay(&parent), before, "cache rows {cache_rows:?}: rollback");

        // The trial's long-cell lists stay in the store the parent shares
        // with its forks; none of them may show.
        let mut fresh = decay_parent(cache_rows);
        decay_windows(&mut fresh, &TWO_WINDOWS);
        assert_eq!(observe_decay(&fresh), trial, "cache rows {cache_rows:?}: a fresh module");
        let mut fork = parent.fork();
        decay_windows(&mut fork, &TWO_WINDOWS);
        assert_eq!(observe_decay(&fork), trial, "cache rows {cache_rows:?}: a fresh fork");
        parent.journal_begin();
        decay_windows(&mut parent, &TWO_WINDOWS);
        assert_eq!(
            observe_decay(&parent),
            trial,
            "cache rows {cache_rows:?}: the same trial again"
        );
        parent.journal_rollback();

        let s = fresh.stats();
        assert!(s.decay_flips > 0, "cache rows {cache_rows:?}: the windows decay cells");
        assert!(s.retention_cache_bytes > 0, "cache rows {cache_rows:?}: long-cell lists are held");
        if cache_rows.is_some() {
            assert!(s.retention_cache_evictions > 0, "cache rows {cache_rows:?}: the bound evicts");
        }
    }
}

#[test]
fn masks_churned_out_of_the_shared_store_rebuild_unseen() {
    // The parent holds the long-cell lists of eight rows only; a fork,
    // sharing the parent's store, then churns them out of it. The parent's
    // next window rebuilds them, and must account exactly what a twin
    // that never shared its store does: a list the parent already holds
    // is stored again, not held a second time.
    let build = || {
        let mut m = DramModule::new(DramConfig::small_test());
        m.set_model_cache_capacity(8);
        let row_bytes = m.geometry().row_bytes() as usize;
        m.fill(0, 8 * row_bytes, 0xFF).expect("rows 0..8");
        decay_windows(&mut m, &[2]);
        // A full-decay outage over every row evicts the lists the window
        // held for rows 0..8.
        m.fill(8 * row_bytes as u64, 56 * row_bytes, 0xFF).expect("rows 8..64");
        m.power_off(m.config().retention.max_ns);
        m
    };
    let mut parent = build();
    let mut twin = build();
    decay_windows(&mut parent.fork(), &[1, 3, 5]);
    for m in [&mut parent, &mut twin] {
        m.journal_begin();
        decay_windows(m, &[2]);
    }
    assert_eq!(observe_decay(&parent), observe_decay(&twin));
}

#[test]
fn a_rolled_back_disturbance_fires_again_in_the_next_trial() {
    // The parent's victim rows were written after their last disturbance,
    // so a trial's hammering flips them. Rollback restores those bytes, and
    // the next identical trial must flip them again: the rows a trial left
    // settled are settled no more once their pre-images are back.
    let hammer = |m: &mut DramModule| {
        let interval = m.config().refresh_interval_ns;
        m.advance(interval - m.now_ns() % interval);
        m.hammer_double_sided(RowId(5)).expect("in bounds");
    };
    let mut parent = DramModule::new(DramConfig::small_test());
    let row_bytes = parent.geometry().row_bytes();
    parent.fill(0, 16 * row_bytes as usize, 0xFF).expect("rows 0..16");
    hammer(&mut parent);
    parent.fill(3 * row_bytes, 5 * row_bytes as usize, 0xFF).expect("rows 3..8");
    parent.take_flip_log();
    let trial = |m: &mut DramModule| {
        m.journal_begin();
        hammer(m);
        hammer(m);
        let flips: Vec<String> = m.take_flip_log().iter().map(|e| format!("{e:?}")).collect();
        let transcript = (flips, m.contents_hash(), format!("{:?}", m.stats()), m.now_ns());
        m.journal_rollback();
        transcript
    };
    let first = trial(&mut parent);
    assert!(!first.0.is_empty(), "the trial flips cells");
    assert_eq!(trial(&mut parent), first, "a second identical trial");
}
