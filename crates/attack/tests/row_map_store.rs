//! The shared row-map store must be invisible: a trial served from a
//! pooled parent that earlier trials left maps in produces exactly the
//! record and telemetry of the same trial on a freshly booted parent.
//!
//! Trial A (templating) and trial B (spray) share a parent because attack
//! parameters are not part of the parent key. A builds vulnerability maps
//! that stay in the parent's store after rollback or fork teardown; B must
//! still account every map it looks up as its own first lookup — the
//! `vuln_cache_bytes` and `vuln_cache_evictions` gauges included. Parents
//! profile their cell types at boot, so the retention model's long-cell
//! lists are in the store too, and the `retention_cache_*` gauges must
//! match as well.

use cta_attack::recording::RECORDING_LABEL;
use cta_attack::{
    record_campaign, CampaignExecutor, CampaignOutput, CampaignRequest, ExecutorConfig,
    RecordedAttack, RecordingSpec, ReplayTarget, SprayAttack, TemplatingAttack, TrialIsolation,
};
use cta_telemetry::json::{self, JsonValue};
use cta_vm::Kernel;

const SEED: u64 = 9;

fn spec(attack: RecordedAttack) -> RecordingSpec {
    let mut spec = RecordingSpec::new(attack, vec![SEED]);
    spec.memory_bytes = 2 << 20;
    spec.ptp_bytes = 256 << 10;
    spec.protected = true;
    spec.profile_cells = true;
    spec
}

const ATTACK_A: TemplatingAttack =
    TemplatingAttack { arena_pages: 48, max_attempts: 2, flush_per_probe: false };

const ATTACK_B: SprayAttack =
    SprayAttack { regions: 4, file_pages: 2, max_hammer_rows: 2, flush_per_probe: false };

fn trial_a() -> RecordingSpec {
    spec(RecordedAttack::Templating(ATTACK_A))
}

fn trial_b() -> RecordingSpec {
    spec(RecordedAttack::Spray(ATTACK_B))
}

/// Runs `specs` in order on one single-parent executor; returns the last
/// campaign's output and the executor's pooled model-cache bytes.
fn run_in_order(specs: &[RecordingSpec], isolation: TrialIsolation) -> (CampaignOutput, u64) {
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 1 });
    let mut last = None;
    for spec in specs {
        let mut request = CampaignRequest::new("tenant", spec.clone());
        request.label = RECORDING_LABEL.to_string();
        request.isolation = isolation;
        last = Some(exec.run(request).expect("campaign completes"));
    }
    let stats = exec.stats();
    assert_eq!(stats.parent_boots, 1, "every trial was served by one parent");
    (last.expect("at least one campaign"), stats.pool_model_cache_bytes)
}

fn dram_gauge(output: &CampaignOutput, name: &str) -> u64 {
    let telemetry = json::parse(&output.counters.to_json()).expect("telemetry parses");
    let Some(JsonValue::Number(v)) =
        telemetry.get("groups").and_then(|g| g.get("dram")).and_then(|d| d.get(name))
    else {
        panic!("dram.{name} missing from {}", output.counters.to_json());
    };
    *v as u64
}

#[test]
fn maps_left_by_an_earlier_trial_are_invisible_to_the_next() {
    for isolation in [TrialIsolation::Journal, TrialIsolation::Fork] {
        let what = format!("{} isolation", isolation.name());
        let (after_a, shared_bytes) = run_in_order(&[trial_a(), trial_b()], isolation);
        let (fresh, fresh_bytes) = run_in_order(&[trial_b()], isolation);

        assert_eq!(after_a.trials, fresh.trials, "{what}: trial record");
        assert_eq!(after_a.counters.to_json(), fresh.counters.to_json(), "{what}: telemetry");
        for gauge in [
            "vuln_cache_bytes",
            "vuln_cache_evictions",
            "retention_cache_bytes",
            "retention_cache_evictions",
        ] {
            assert_eq!(dram_gauge(&after_a, gauge), dram_gauge(&fresh, gauge), "{what}");
        }
        assert!(dram_gauge(&fresh, "vuln_cache_bytes") > 0, "{what}: B builds maps");
        assert!(
            dram_gauge(&fresh, "retention_cache_bytes") > 0,
            "{what}: profiling holds long-cell lists"
        );
        assert!(
            shared_bytes > fresh_bytes,
            "{what}: the parent's store keeps A's maps ({shared_bytes} vs {fresh_bytes})"
        );
    }
}

#[test]
fn maps_left_by_an_earlier_trial_stay_invisible_when_the_caches_evict() {
    // Model caches of two rows, so B's own lookups evict maps and long-cell
    // lists: the eviction order must not see A's maps either. A module
    // larger than the default row capacity evicts the same way.
    let boot = || {
        let mut kernel = trial_b().builder(SEED, ReplayTarget::default()).build().expect("boots");
        kernel.dram_mut().set_model_cache_capacity(2);
        kernel
    };
    let counters = |kernel: &Kernel| kernel.counters(RECORDING_LABEL).to_json();
    let mut twin = boot();
    ATTACK_B.run(&mut twin).expect("B runs");
    let want = counters(&twin);
    let stats = twin.dram().stats();
    assert!(stats.vuln_cache_evictions > 0, "B evicts maps");
    assert!(stats.retention_cache_evictions > 0, "B evicts long-cell lists");

    let mut parent = boot();
    parent.journal_begin();
    ATTACK_A.run(&mut parent).expect("A runs");
    parent.journal_rollback();
    parent.journal_begin();
    ATTACK_B.run(&mut parent).expect("B runs");
    assert_eq!(counters(&parent), want, "journal isolation");
    parent.journal_rollback();

    let parent = boot();
    ATTACK_A.run(&mut parent.fork()).expect("A runs");
    let mut child = parent.fork();
    ATTACK_B.run(&mut child).expect("B runs");
    assert_eq!(counters(&child), want, "fork isolation");
}

#[test]
fn a_trial_after_another_matches_the_scoped_fresh_boot() {
    let recording = record_campaign(&trial_b()).expect("scoped path records");
    for isolation in [TrialIsolation::Journal, TrialIsolation::Fork] {
        let (after_a, _) = run_in_order(&[trial_a(), trial_b()], isolation);
        assert_eq!(after_a.trials, recording.trials, "{}", isolation.name());
        let telemetry = json::parse(&after_a.counters.to_json()).expect("telemetry parses");
        assert_eq!(telemetry, recording.telemetry, "{}", isolation.name());
    }
}
