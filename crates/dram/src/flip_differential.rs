//! Differential test: the wordwise disturbance and decay paths are
//! observably identical to the per-bit scalar reference. One seeded
//! operation sequence — writes, fills, hammering, refresh outages with
//! decay-then-disturb interplay, power cycles, peeks — drives a production
//! module and a [`DramModule::scalar_reference`] module, and every
//! observable must match byte for byte: full DRAM contents, the flip log in
//! order, statistics, telemetry JSON, and the simulated clock.

use cta_telemetry::Counters;

use crate::{
    AddressMapping, CellLayout, CellType, DisturbanceParams, DramConfig, DramGeometry, DramModule,
    RowId,
};

/// Tiny deterministic generator (SplitMix64) so the op sequence is seeded
/// without pulling RNG crates into the test.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Drives one seeded op sequence against `m`, returning mid-sequence reads
/// (an observable of their own). Roughly a quarter of the steps run with
/// refresh disabled, so hammering regularly exercises the decay-then-disturb
/// path on partially decayed rows.
fn drive(m: &mut DramModule, seed: u64) -> Vec<Vec<u8>> {
    let cap = m.capacity_bytes();
    let rows = m.geometry().total_rows();
    let threshold = m.config().disturbance.hammer_threshold;
    let retention = m.config().retention;
    let mut rng = Mix(seed);
    let mut peeks = Vec::new();
    for step in 0..250 {
        match rng.next() % 12 {
            0..=2 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 96).min(cap - addr) as usize;
                let byte = (rng.next() & 0xFF) as u8;
                let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                m.write(addr, &data).unwrap();
            }
            3..=4 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 300).min(cap - addr) as usize;
                m.fill(addr, len, (rng.next() & 0xFF) as u8).unwrap();
            }
            5 => {
                let row = RowId(rng.next() % rows);
                m.hammer(row, threshold).unwrap();
            }
            6 => {
                let row = RowId(1 + rng.next() % (rows.saturating_sub(2).max(1)));
                m.hammer_double_sided(row).unwrap();
            }
            7 => {
                // Partial-window decay: sit refresh-less for a stretch inside
                // [min_ns, max_ns), then hammer into the decayed state.
                m.disable_refresh();
                m.advance(retention.min_ns + (rng.next() % (retention.max_ns - retention.min_ns)));
                let row = RowId(1 + rng.next() % (rows.saturating_sub(2).max(1)));
                m.hammer_double_sided(row).unwrap();
            }
            8 => {
                m.enable_refresh();
            }
            9 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 64).min(cap - addr) as usize;
                peeks.push(m.peek(addr, len).unwrap());
                let read = m.read(addr, len).unwrap();
                peeks.push(read);
            }
            10 => {
                let row = RowId(rng.next() % rows);
                peeks.push(vec![m.vulnerable_bits(row).unwrap().len() as u8]);
            }
            _ => {
                if step % 50 == 17 {
                    m.power_off(retention.max_ns + rng.next() % retention.long_max_ns);
                } else {
                    m.advance(rng.next() % 1_000_000);
                }
            }
        }
    }
    m.enable_refresh();
    peeks
}

/// Everything an experimenter can observe about a module after a drive.
fn observe(
    m: &mut DramModule,
    peeks: Vec<Vec<u8>>,
) -> (Vec<Vec<u8>>, Vec<u8>, String, String, u64) {
    let contents = m.peek(0, m.capacity_bytes() as usize).unwrap();
    let log = m.take_flip_log();
    // The drop count is an observable of its own: both paths must evict
    // exactly the same events from the bounded window.
    let flips: String = std::iter::once(format!("dropped={};", log.dropped))
        .chain(log.iter().map(|e| format!("{:?}/{}/{}/{};", e.row, e.bit, e.direction, e.time_ns)))
        .collect();
    let mut counters = Counters::new("diff");
    counters.record(m.stats());
    counters.add_u64("dram", "rows_materialized", m.rows_materialized() as u64);
    (peeks, contents, flips, counters.to_json(), m.now_ns())
}

fn assert_matches_scalar_reference(config: DramConfig, seed: u64, ctx: &str) {
    let mut scalar = DramModule::scalar_reference(config.clone());
    let mut wordwise = DramModule::new(config);
    let s_peeks = drive(&mut scalar, seed);
    let w_peeks = drive(&mut wordwise, seed);
    let s = observe(&mut scalar, s_peeks);
    let w = observe(&mut wordwise, w_peeks);
    assert_eq!(s.0, w.0, "{ctx}: mid-sequence reads diverged");
    assert_eq!(s.1, w.1, "{ctx}: final row contents diverged");
    assert_eq!(s.2, w.2, "{ctx}: flip logs diverged");
    assert_eq!(s.3, w.3, "{ctx}: telemetry JSON diverged");
    assert_eq!(s.4, w.4, "{ctx}: simulated clocks diverged");
}

/// The differential module: `small_test` semantics on 512-byte rows, so the
/// deliberately slow scalar reference (one retention hash per bit per
/// partial-decay window) keeps the suite fast.
fn diff_config() -> DramConfig {
    DramConfig {
        geometry: DramGeometry::new(512, 64, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        disturbance: DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    }
}

#[test]
fn wordwise_matches_scalar_reference() {
    for seed in [1u64, 42] {
        let config = diff_config().with_seed(seed);
        assert_matches_scalar_reference(config, seed, &format!("seed={seed}"));
    }
}

#[test]
fn wordwise_matches_scalar_reference_on_tail_word_rows() {
    // 4-byte rows: 32 bits per row, so every word is a zero-padded tail
    // word. High pf so the tiny rows still flip.
    for (row_bytes, seed) in [(4u64, 7u64), (2, 8), (1, 9)] {
        let config = DramConfig {
            geometry: DramGeometry::new(row_bytes, 64, 1, AddressMapping::RowLinear),
            layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
            disturbance: DisturbanceParams { pf: 0.2, ..DisturbanceParams::default() },
            ..DramConfig::small_test()
        };
        assert_matches_scalar_reference(config, seed, &format!("row_bytes={row_bytes}"));
    }
}

#[test]
fn wordwise_tail_flips_stay_inside_the_row() {
    // Hammering 32-bit rows must never set a bit index ≥ 32 (a padding bit
    // of the tail word) or corrupt a neighboring row's bytes.
    let config = DramConfig {
        geometry: DramGeometry::new(4, 64, 1, AddressMapping::RowLinear),
        layout: CellLayout::AllTrue,
        disturbance: DisturbanceParams { pf: 0.3, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    };
    let mut m = DramModule::new(config);
    m.fill(0, m.capacity_bytes() as usize, 0xFF).unwrap();
    for row in 1..63 {
        m.hammer_to_threshold(RowId(row)).unwrap();
        m.advance(m.config().refresh_interval_ns);
    }
    let log = m.take_flip_log();
    assert!(!log.is_empty(), "pf=0.3 over 62 hammered rows must flip something");
    assert!(log.iter().all(|e| e.bit < 32), "flip escaped the 32-bit row");
    assert_eq!(log.total_recorded(), m.stats().total_flips(), "take must account every flip");
}

#[test]
fn forked_module_inherits_warm_planes_and_matches_scalar_reference() {
    // A fork clones the model caches, so warm plane maps carry over. The
    // fork must still be bit-identical to a cold scalar reference module
    // driven the same way.
    let config = diff_config();
    let mut warm = DramModule::new(config.clone());
    // Warm the plane cache by hammering every row once.
    for row in 0..64 {
        warm.hammer_to_threshold(RowId(row)).unwrap();
        warm.advance(warm.config().refresh_interval_ns);
    }
    let mut fork = warm.fork();
    let mut scalar = DramModule::scalar_reference(config);
    // Replay the warm-up on the scalar module so histories agree…
    for row in 0..64 {
        scalar.hammer_to_threshold(RowId(row)).unwrap();
        scalar.advance(scalar.config().refresh_interval_ns);
    }
    // …then drive both through a fresh differential sequence.
    let f_peeks = drive(&mut fork, 5);
    let s_peeks = drive(&mut scalar, 5);
    assert_eq!(f_peeks, s_peeks);
    assert_eq!(
        fork.peek(0, fork.capacity_bytes() as usize).unwrap(),
        scalar.peek(0, scalar.capacity_bytes() as usize).unwrap()
    );
    assert_eq!(fork.now_ns(), scalar.now_ns());
}

/// One double-sided hammer of `victim` from the start of the next refresh
/// window: `victim` is disturbed twice (once per aggressor), the second
/// time unchanged.
fn hammer_in_new_window(m: &mut DramModule, victim: RowId) {
    let interval = m.config().refresh_interval_ns;
    m.advance(interval - m.now_ns() % interval);
    m.hammer_double_sided(victim).unwrap();
}

/// Repeat disturbances of one victim, with every kind of change that must
/// make the next one run its flip pass again in between: a one-byte write
/// under a vulnerable cell, a partial decay window, and a journaled trial
/// rolled back. Returns the contents hash, flip count and clock after each
/// step.
fn repeat_disturbances(m: &mut DramModule, victim: RowId, addr: u64, fire: u8) -> Vec<[u64; 3]> {
    let row_bytes = m.geometry().row_bytes();
    let retention = m.config().retention;
    let mut seen = Vec::new();
    let snap = |m: &DramModule, seen: &mut Vec<[u64; 3]>| {
        seen.push([m.contents_hash(), m.stats().total_flips(), m.now_ns()]);
    };
    m.fill((victim.0 - 2) * row_bytes, 5 * row_bytes as usize, 0xA5).unwrap();
    for _ in 0..2 {
        hammer_in_new_window(m, victim);
        snap(m, &mut seen);
    }
    m.write(addr, &[fire]).unwrap();
    hammer_in_new_window(m, victim);
    snap(m, &mut seen);
    m.disable_refresh();
    m.advance(retention.min_ns + (retention.max_ns - retention.min_ns) / 2);
    m.hammer_double_sided(victim).unwrap();
    snap(m, &mut seen);
    m.enable_refresh();
    m.write(addr, &[fire]).unwrap();
    m.journal_begin();
    hammer_in_new_window(m, victim);
    snap(m, &mut seen);
    m.journal_rollback();
    snap(m, &mut seen);
    hammer_in_new_window(m, victim);
    snap(m, &mut seen);
    seen
}

#[test]
fn repeat_disturbances_match_scalar_reference() {
    for (seed, victim) in [(3u64, RowId(10)), (4, RowId(21))] {
        let config = diff_config().with_seed(seed);
        let mut scalar = DramModule::scalar_reference(config.clone());
        let mut wordwise = DramModule::new(config);
        // A byte under a leakage-direction cell, written to its firing value.
        let cell = wordwise.layout().cell_type(victim);
        let bit = wordwise.vulnerable_bits(victim).unwrap()[0];
        let fire = if bit.direction.source_value() { 0xFF } else { 0x00 };
        let addr = victim.0 * wordwise.geometry().row_bytes() + bit.bit / 8;
        let s = repeat_disturbances(&mut scalar, victim, addr, fire);
        let w = repeat_disturbances(&mut wordwise, victim, addr, fire);
        let ctx = format!("seed={seed} {cell:?} victim={victim:?}");
        assert_eq!(s, w, "{ctx}: hashes, flip counts or clocks diverged");
        assert!(w.windows(2).any(|p| p[0][1] == p[1][1]), "{ctx}: a repeat fires nothing");
        assert!(w[2][1] > w[1][1], "{ctx}: the write re-arms a cell");
        assert!(w[6][1] > w[5][1], "{ctx}: rollback re-arms the cells its trial fired");
        let (s, w) = (observe(&mut scalar, Vec::new()), observe(&mut wordwise, Vec::new()));
        assert_eq!(s, w, "{ctx}: flip logs, contents or telemetry diverged");
    }
}
