//! Differential test: compact rows are observably identical to dense ones.
//! A profiled module, whose read-back left its true-cell rows compact, and
//! its dense twin ([`DramModule::dense_reference`], whose decayed rows stay
//! dense) run the flip differential's seeded operation sequence — reads,
//! peeks, writes, fills, hammering, partial and full decay, power cycles —
//! outside a journal, inside one and on a fork. Contents, contents hashes
//! (checkpointed and digested), the flip log, statistics and the clock
//! must match at every step; in a journaled trial and on a fork the
//! compact side allocates no more row buffers than the dense one, and
//! neither allocates any in a repeat trial.

use crate::flip_differential::{diff_config, drive, observe};
use crate::{
    profile_cell_types, row_buffers_allocated, AddressMapping, DisturbanceParams, DramConfig,
    DramGeometry, DramModule, ProfilerConfig,
};

/// What one side showed: every observable, and the row buffers it
/// allocated in each segment of a scenario.
#[derive(Default)]
struct Run {
    observed: Vec<String>,
    allocated: Vec<u64>,
    compact_rows: usize,
}

impl Run {
    /// Runs one segment of a scenario and records what it showed.
    fn segment(&mut self, m: &mut DramModule, step: impl FnOnce(&mut DramModule) -> Vec<String>) {
        let before = row_buffers_allocated();
        self.observed.extend(step(m));
        self.observed.push(format!("{:?}", observe(m, Vec::new())));
        self.allocated.push(row_buffers_allocated() - before);
    }
}

/// Three contents hashes, with the count of compiled digests after each.
fn hashes(m: &DramModule) -> Vec<String> {
    (0..3).map(|_| format!("{:#x} digested={}", m.contents_hash(), m.rows_digested())).collect()
}

/// A journaled trial of `seed`'s sequence, hashed before, during and after:
/// a write to row 0 first, so the rows after it hash clean until the
/// sequence's refresh outages save them all.
fn trial(m: &mut DramModule, seed: u64) -> Vec<String> {
    m.journal_begin();
    let mut seen = hashes(m);
    m.write(0, &[0x5A]).expect("in range");
    seen.extend(hashes(m));
    let peeks = drive(m, seed);
    seen.extend(hashes(m));
    seen.push(format!("{:?}", observe(m, peeks)));
    m.journal_rollback();
    seen.extend(hashes(m));
    seen
}

/// The scenarios: two identical journaled trials; a fork driven while its
/// parent waits; the module itself driven outside a journal.
const SCENARIOS: usize = 3;

/// Profiles a module, compact or its dense twin, and runs `scenario` of
/// `seed` on it, on a thread of its own, so that its spare row buffers and
/// allocation count are its own.
fn run(config: DramConfig, seed: u64, dense: bool, scenario: usize) -> Run {
    std::thread::spawn(move || {
        let mut m =
            if dense { DramModule::dense_reference(config) } else { DramModule::new(config) };
        profile_cell_types(&mut m, &ProfilerConfig::default()).expect("whole module");
        let mut run = Run { compact_rows: m.rows_compact(), ..Run::default() };
        match scenario {
            0 => {
                run.segment(&mut m, |m| trial(m, seed));
                run.segment(&mut m, |m| trial(m, seed));
            }
            1 => run.segment(&mut m, |m| {
                let mut fork = m.fork();
                let peeks = drive(&mut fork, seed);
                vec![format!("{:?}", observe(&mut fork, peeks)), hashes(&fork).concat()]
            }),
            _ => run.segment(&mut m, |m| {
                let peeks = drive(m, seed);
                vec![format!("{:?}", observe(m, peeks)), hashes(m).concat()]
            }),
        }
        run
    })
    .join()
    .expect("the drive runs")
}

fn assert_compact_matches_dense(config: DramConfig, seed: u64, ctx: &str) {
    let mut digested = false;
    for scenario in 0..SCENARIOS {
        let ctx = format!("{ctx} scenario {scenario}");
        let compact = run(config.clone(), seed, false, scenario);
        let dense = run(config.clone(), seed, true, scenario);
        assert!(compact.compact_rows > dense.compact_rows, "{ctx}: the twin's rows stay dense");
        assert_eq!(compact.observed.len(), dense.observed.len(), "{ctx}");
        for (i, (c, d)) in compact.observed.iter().zip(&dense.observed).enumerate() {
            assert_eq!(c, d, "{ctx}: observable {i} diverged");
        }
        digested |= compact.observed.iter().any(|o| o.contains(" digested=") && !o.ends_with("=0"));
        // Outside a journal, a compact row's first change costs the buffer
        // a dense row already held.
        if scenario < 2 {
            let (c, d) = (compact.allocated[0], dense.allocated[0]);
            assert!(c <= d, "{ctx}: {c} row buffers allocated, by its dense twin {d}");
        }
        if scenario == 0 {
            assert_eq!((compact.allocated[1], dense.allocated[1]), (0, 0), "{ctx}: a repeat");
        }
    }
    // Rows ending in a partial word compile no digest.
    let whole_words = config.geometry.row_bytes().is_multiple_of(8);
    assert_eq!(digested, whole_words, "{ctx}: journaled hashes compiled digests");
}

#[test]
fn compact_rows_match_their_dense_twins() {
    for seed in [1u64, 42] {
        assert_compact_matches_dense(diff_config().with_seed(seed), seed, &format!("seed={seed}"));
    }
    // 4-byte rows: every word is a zero-padded tail word.
    let config = DramConfig {
        geometry: DramGeometry::new(4, 64, 1, AddressMapping::RowLinear),
        disturbance: DisturbanceParams { pf: 0.2, ..DisturbanceParams::default() },
        ..diff_config()
    };
    assert_compact_matches_dense(config, 7, "row_bytes=4");
}
