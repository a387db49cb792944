//! Differential tests for the software-defense activation hook.
//!
//! Two contract points from `cta_dram::defense`:
//!
//! - **No defense, no change**: a module with a pure-observer defense is
//!   byte-identical (contents, flip log, clocks, DRAM telemetry) to one
//!   with no defense at all, under a seeded adversarial op sequence.
//! - **Defense refreshes are ordinary refreshes**: a SoftTRR-issued
//!   targeted refresh resets hammer progress and lands in the DRAM
//!   counters exactly like a manual `refresh_neighbors_of` call.
//!
//! Each acting defense also has a preemption test against an attack that
//! flips bits on the same module without it.

use cta_dram::{
    AnvilSamplerDefense, AnvilSamplerParams, BlockHammerDefense, BlockHammerParams,
    DisturbanceParams, DramConfig, DramModule, ObserverDefense, RowId, SoftTrrDefense,
    SoftTrrParams,
};
use cta_telemetry::Counters;

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

/// Drives one seeded op sequence against `m` (writes, fills, hammering,
/// refresh outages, reads), returning mid-sequence observations.
fn drive(m: &mut DramModule, seed: u64) -> Vec<Vec<u8>> {
    let cap = m.capacity_bytes();
    let rows = m.geometry().total_rows();
    let threshold = m.config().disturbance.hammer_threshold;
    let mut rng = Mix(seed);
    let mut peeks = Vec::new();
    for step in 0..120 {
        match rng.next() % 8 {
            0..=2 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 96).min(cap - addr) as usize;
                let byte = (rng.next() & 0xFF) as u8;
                let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                m.write(addr, &data).unwrap();
            }
            3 => {
                let row = RowId(rng.next() % rows);
                m.hammer(row, threshold).unwrap();
            }
            4 => {
                let row = RowId(1 + rng.next() % (rows - 2));
                m.hammer_double_sided(row).unwrap();
            }
            5 => {
                if step % 2 == 0 {
                    m.disable_refresh();
                    m.advance(m.config().retention.min_ns / 4);
                } else {
                    m.enable_refresh();
                }
            }
            6 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 64).min(cap - addr) as usize;
                peeks.push(m.peek(addr, len).unwrap());
                peeks.push(m.read(addr, len).unwrap());
            }
            _ => m.advance(rng.next() % 1_000_000),
        }
    }
    m.enable_refresh();
    peeks
}

/// Full observable state of a module: mid-sequence peeks, final contents,
/// flip transcript, clock, and DRAM telemetry JSON.
fn observe(
    m: &mut DramModule,
    peeks: Vec<Vec<u8>>,
) -> (Vec<Vec<u8>>, Vec<u8>, String, u64, String) {
    let contents = m.peek(0, m.capacity_bytes() as usize).unwrap();
    let log = m.take_flip_log();
    let flips: String =
        std::iter::once(format!("dropped={};", log.dropped))
            .chain(log.iter().map(|e| {
                format!("{:?}/{:?}/{:?}/{};", e.row(), e.bit(), e.direction(), e.time_ns())
            }))
            .collect();
    let mut counters = Counters::new("diff");
    counters.record(m.stats());
    (peeks, contents, flips, m.now_ns(), counters.to_json())
}

#[test]
fn observer_defense_is_byte_identical_to_no_defense() {
    for seed in [7u64, 0xBEEF] {
        let mut plain = DramModule::new(DramConfig::small_test().with_seed(seed));
        let plain_peeks = drive(&mut plain, seed);
        let reference = observe(&mut plain, plain_peeks);

        let mut observed = DramModule::new(DramConfig::small_test().with_seed(seed));
        observed.install_defense(Box::new(ObserverDefense::new()));
        let observed_peeks = drive(&mut observed, seed);
        let result = observe(&mut observed, observed_peeks);

        assert_eq!(result, reference, "seed={seed}");
        // The observer really watched the stream — it just never acted.
        assert!(observed.defense_stats().activations_seen > 0, "seed={seed}");
        assert_eq!(observed.defense_stats().activations_denied, 0);
        assert_eq!(observed.defense_stats().targeted_refreshes, 0);
    }
}

#[test]
fn softtrr_refresh_matches_manual_refresh_calls() {
    // Module A: SoftTRR protecting row 2, aggressor row 1 hammered with one
    // burst of the full hammer threshold. Module B: no defense, the same
    // total activations issued in TRR-threshold-sized chunks with a manual
    // refresh_neighbors_of after each — what SoftTRR does from the hook.
    let trr = SoftTrrParams { trr_threshold: 16 * 1024 };
    let threshold = DramConfig::small_test().disturbance.hammer_threshold;
    let chunks = threshold / trr.trr_threshold;
    assert_eq!(chunks * trr.trr_threshold, threshold, "test wants an exact split");

    let mut defended = DramModule::new(DramConfig::small_test());
    defended.install_defense(Box::new(SoftTrrDefense::new(trr)));
    defended.defense_protect_row(RowId(2)).unwrap();
    defended.fill(2 * 4096, 4096, 0xFF).unwrap();
    defended.hammer(RowId(1), threshold).unwrap();

    let mut manual = DramModule::new(DramConfig::small_test());
    manual.fill(2 * 4096, 4096, 0xFF).unwrap();
    for _ in 0..chunks {
        manual.hammer(RowId(1), trr.trr_threshold).unwrap();
        manual.refresh_neighbors_of(RowId(1)).unwrap();
    }

    // Same hammer progress reset: the within-window counter is cleared on
    // both paths, and neither side ever reached the disturbance threshold.
    assert_eq!(defended.window_activations(RowId(1)), manual.window_activations(RowId(1)));
    assert_eq!(defended.window_activations(RowId(1)), 0);
    assert_eq!(defended.defense_stats().targeted_refreshes, chunks);

    // Identical contents and identical DRAM counters — directional flip
    // counters included — exactly as if the attacker had watched manual
    // refreshes: zero flips either way.
    assert_eq!(
        defended.peek(0, defended.capacity_bytes() as usize).unwrap(),
        manual.peek(0, manual.capacity_bytes() as usize).unwrap()
    );
    assert_eq!(defended.now_ns(), manual.now_ns());
    let json = |m: &DramModule| {
        let mut c = Counters::new("diff");
        c.record(m.stats());
        c.to_json()
    };
    assert_eq!(json(&defended), json(&manual));
    assert_eq!(defended.stats().total_flips(), 0);

    // Control: the same burst with no defense and no manual refreshes does
    // cross the threshold and flip bits in the protected victim.
    let mut undefended = DramModule::new(DramConfig::small_test());
    undefended.fill(2 * 4096, 4096, 0xFF).unwrap();
    undefended.hammer(RowId(1), threshold).unwrap();
    assert!(undefended.stats().total_flips() > 0);
}

#[test]
fn softtrr_protects_only_neighbors_of_protected_rows() {
    // Victim row 2 protected: double-sided hammering of it flips nothing.
    let mut m = DramModule::new(DramConfig::small_test());
    m.install_defense(Box::new(SoftTrrDefense::new(SoftTrrParams::default())));
    m.defense_protect_row(RowId(2)).unwrap();
    m.fill(2 * 4096, 4096, 0xFF).unwrap();
    m.fill(6 * 4096, 4096, 0xFF).unwrap();
    m.hammer_double_sided(RowId(2)).unwrap();
    let protected_flips = m.stats().flip_log.iter().filter(|e| e.row() == RowId(2)).count();
    assert_eq!(protected_flips, 0, "SoftTRR must keep the protected row clean");
    assert!(m.defense_stats().targeted_refreshes > 0);

    // Unprotected victim row 6 in the same module: stock behavior, flips.
    m.advance(m.config().refresh_interval_ns); // fresh window
    m.hammer_double_sided(RowId(6)).unwrap();
    let unprotected_flips = m.stats().flip_log.iter().filter(|e| e.row() == RowId(6)).count();
    assert!(unprotected_flips > 0, "rows without protected neighbors see stock behavior");
}

#[test]
fn blockhammer_throttles_blacklisted_rows() {
    let params = BlockHammerParams::default();
    let threshold = DramConfig::small_test().disturbance.hammer_threshold;

    let mut m = DramModule::new(DramConfig::small_test());
    m.install_defense(Box::new(BlockHammerDefense::new(params)));
    m.fill(2 * 4096, 4096, 0xFF).unwrap();
    let t0 = m.now_ns();
    m.hammer(RowId(1), threshold).unwrap();

    // The row's window counter is pinned at the blacklist budget, the
    // remainder was denied, and no disturbance ever fired.
    assert_eq!(m.window_activations(RowId(1)), params.blacklist_threshold);
    assert_eq!(m.defense_stats().activations_denied, threshold - params.blacklist_threshold);
    assert_eq!(m.stats().total_flips(), 0);
    // Denied activations still cost tRC — the controller stalls them.
    assert_eq!(m.now_ns() - t0, threshold * m.config().disturbance.trc_ns);

    // Control: without the defense the identical burst flips bits.
    let mut undefended = DramModule::new(DramConfig::small_test());
    undefended.fill(2 * 4096, 4096, 0xFF).unwrap();
    undefended.hammer(RowId(1), threshold).unwrap();
    assert!(undefended.stats().total_flips() > 0);
}

#[test]
fn anvil_sampler_preempts_a_bursty_double_sided_attack() {
    // The attacker alternates threshold/8 bursts on both aggressors of
    // victim row 2; the sampler must notice and refresh before any flip.
    let attack = |defended: bool| {
        let config = DramConfig::small_test()
            .with_disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() });
        let mut m = DramModule::new(config);
        if defended {
            m.install_defense(Box::new(AnvilSamplerDefense::new(AnvilSamplerParams::default())));
        }
        m.fill(2 * 4096, 4096, 0xFF).unwrap();
        let threshold = m.config().disturbance.hammer_threshold;
        for _ in 0..20 {
            m.hammer(RowId(1), threshold / 8).unwrap();
            m.hammer(RowId(3), threshold / 8).unwrap();
        }
        m
    };
    let defended = attack(true);
    let alarms = defended.defense().expect("anvil installed").counters();
    assert!(alarms[0].1 >= 2, "the attack must be noticed: {alarms:?}");
    assert_eq!(defended.stats().total_flips(), 0, "mitigation must preempt disturbance");

    // Control: without the sampler the identical bursts flip bits.
    assert!(attack(false).stats().total_flips() > 0);
}

#[test]
fn fork_carries_independent_defense_state() {
    let mut parent = DramModule::new(DramConfig::small_test());
    parent.install_defense(Box::new(BlockHammerDefense::new(BlockHammerParams::default())));
    let mut child = parent.fork();
    assert_eq!(child.defense().map(|d| d.name()), Some("blockhammer"));

    child.hammer(RowId(1), 64 * 1024).unwrap();
    assert!(child.defense_stats().activations_denied > 0);
    assert_eq!(parent.defense_stats().activations_denied, 0);
    assert_eq!(parent.defense_stats().activations_seen, 0);
}

#[test]
fn defense_snapshot_exists_only_when_installed() {
    let mut m = DramModule::new(DramConfig::small_test());
    assert!(m.defense_snapshot().is_none());

    m.install_defense(Box::new(ObserverDefense::new()));
    m.hammer(RowId(1), 100).unwrap();
    let snap = m.defense_snapshot().expect("defense installed");
    assert_eq!(snap.name, "observer");
    assert_eq!(snap.stats.activations_seen, 100);

    let mut c = Counters::new("diff");
    c.record(&snap);
    let g = c.group("defense").expect("defense group recorded");
    assert_eq!(g.get_u64("activations_seen"), Some(100));
    assert_eq!(g.get_u64("observer_batches"), Some(1));
}
