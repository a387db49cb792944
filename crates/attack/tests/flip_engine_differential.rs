//! Differential campaigns: the wordwise bitplane flip engine must be
//! invisible to an attacker. The engine only changes how the simulator
//! computes disturbance and decay — compiled `u64` masks instead of
//! per-bit loops — so a campaign on a wordwise machine must be bit-identical
//! to the same campaign on a scalar machine: same outcome, same simulated
//! time, same flip log, same DRAM statistics, and the same telemetry JSON
//! byte for byte (eviction counters included: neither engine overflows the
//! model caches at this scale).

use cta_attack::spray::SprayAttack;
use cta_attack::templating::TemplatingAttack;
use cta_core::verify::verify_system;
use cta_core::SystemBuilder;
use cta_dram::{DisturbanceParams, FlipEngine, StoreBackend};
use cta_vm::Kernel;

/// Two machines identical in every respect except the flip engine.
fn machines(seed: u64, pf: f64, backend: StoreBackend) -> (Kernel, Kernel) {
    let base = SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(seed)
        .backend(backend)
        .disturbance(DisturbanceParams { pf, ..DisturbanceParams::default() });
    let scalar = base.clone().flip_engine(FlipEngine::Scalar).build().unwrap();
    let wordwise = base.clone().flip_engine(FlipEngine::Wordwise).build().unwrap();
    (scalar, wordwise)
}

fn assert_machines_identical(scalar: &Kernel, wordwise: &Kernel, ctx: &str) {
    assert_eq!(scalar.now_ns(), wordwise.now_ns(), "{ctx}: simulated clocks diverged");

    let ss = scalar.dram().stats();
    let sw = wordwise.dram().stats();
    assert_eq!(ss, sw, "{ctx}: DRAM statistics (including the flip log) diverged");
    assert!(ss.flip_log.iter().eq(sw.flip_log.iter()), "{ctx}: flip-log events diverged");

    // Full telemetry identity — no group excluded. The engine is pure
    // implementation; even its cache-eviction counters agree (zero) here.
    let cs = scalar.counters("differential");
    let cw = wordwise.counters("differential");
    assert_eq!(cs.to_json(), cw.to_json(), "{ctx}: telemetry JSON diverged");

    let rs = verify_system(scalar).unwrap();
    let rw = verify_system(wordwise).unwrap();
    assert_eq!(rs.is_clean(), rw.is_clean(), "{ctx}: verifier verdicts diverged");
    assert_eq!(
        rs.self_references().count(),
        rw.self_references().count(),
        "{ctx}: self-reference counts diverged"
    );
}

#[test]
fn spray_campaign_is_bit_identical_across_engines() {
    let attack = SprayAttack::default();
    for seed in [0u64, 3, 5] {
        let (mut scalar, mut wordwise) = machines(seed, 0.05, StoreBackend::default());
        let out_s = attack.run(&mut scalar).unwrap();
        let out_w = attack.run(&mut wordwise).unwrap();
        assert_eq!(out_s, out_w, "seed {seed}: spray outcomes diverged");
        assert_machines_identical(&scalar, &wordwise, &format!("spray seed {seed}"));
    }
}

#[test]
fn templating_campaign_is_bit_identical_across_engines() {
    let attack = TemplatingAttack::default();
    for seed in [0u64, 1] {
        let (mut scalar, mut wordwise) = machines(seed, 0.004, StoreBackend::default());
        let out_s = attack.run(&mut scalar).unwrap();
        let out_w = attack.run(&mut wordwise).unwrap();
        assert_eq!(out_s, out_w, "seed {seed}: templating outcomes diverged");
        assert_machines_identical(&scalar, &wordwise, &format!("templating seed {seed}"));
    }
}

#[test]
fn engines_agree_on_every_row_store_backend() {
    let attack = SprayAttack::default();
    for backend in StoreBackend::ALL {
        let (mut scalar, mut wordwise) = machines(7, 0.05, backend);
        let out_s = attack.run(&mut scalar).unwrap();
        let out_w = attack.run(&mut wordwise).unwrap();
        assert_eq!(out_s, out_w, "backend {backend}: spray outcomes diverged");
        assert_machines_identical(&scalar, &wordwise, &format!("backend {backend}"));
    }
}

#[test]
fn campaigns_actually_flip_bits() {
    // Guard against the differential passing vacuously on a flip-free run.
    let attack = SprayAttack::default();
    let (_, mut wordwise) = machines(3, 0.05, StoreBackend::default());
    attack.run(&mut wordwise).unwrap();
    assert!(wordwise.dram().stats().total_flips() > 0, "spray induced no flips at pf=0.05");
}
