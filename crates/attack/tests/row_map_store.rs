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
    RecordedAttack, RecordingSpec, SprayAttack, TemplatingAttack, TenantLimits, TrialIsolation,
};
use cta_telemetry::json::{self, JsonValue};

const SEED: u64 = 9;

fn spec(attack: RecordedAttack) -> RecordingSpec {
    let mut spec = RecordingSpec::new(attack, vec![SEED]);
    spec.memory_bytes = 2 << 20;
    spec.ptp_bytes = 256 << 10;
    spec.protected = true;
    spec.profile_cells = true;
    spec
}

fn trial_a() -> RecordingSpec {
    spec(RecordedAttack::Templating(TemplatingAttack {
        arena_pages: 48,
        max_attempts: 2,
        flush_per_probe: false,
    }))
}

fn trial_b() -> RecordingSpec {
    spec(RecordedAttack::Spray(SprayAttack {
        regions: 4,
        file_pages: 2,
        max_hammer_rows: 2,
        flush_per_probe: false,
    }))
}

/// Runs `specs` in order on one single-parent executor; returns the last
/// campaign's output and the executor's pooled model-cache bytes.
fn run_in_order(
    specs: &[RecordingSpec],
    isolation: TrialIsolation,
    model_cache_bytes: Option<usize>,
) -> (CampaignOutput, u64) {
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 1 });
    exec.set_tenant_limits(
        "tenant",
        TenantLimits { max_parents_per_worker: Some(1), model_cache_bytes },
    );
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
    // Unbounded, and under a byte budget small enough that B's own lookups
    // evict, and that evicts long-cell lists: eviction order must not see
    // A's maps either.
    for budget in [None, Some(16 * 1024)] {
        for isolation in [TrialIsolation::Journal, TrialIsolation::Fork] {
            let what = format!("{} isolation, budget {budget:?}", isolation.name());
            let (after_a, shared_bytes) = run_in_order(&[trial_a(), trial_b()], isolation, budget);
            let (fresh, fresh_bytes) = run_in_order(&[trial_b()], isolation, budget);

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
            match budget {
                None => assert!(
                    shared_bytes > fresh_bytes,
                    "{what}: the parent's store keeps A's maps ({shared_bytes} vs {fresh_bytes})"
                ),
                Some(_) => {
                    assert!(dram_gauge(&fresh, "vuln_cache_evictions") > 0, "{what}: B evicts");
                    assert!(
                        dram_gauge(&fresh, "retention_cache_evictions") > 0,
                        "{what}: the budget evicts long-cell lists"
                    );
                }
            }
        }
    }
}

#[test]
fn a_trial_after_another_matches_the_scoped_fresh_boot() {
    let recording = record_campaign(&trial_b()).expect("scoped path records");
    for isolation in [TrialIsolation::Journal, TrialIsolation::Fork] {
        let (after_a, _) = run_in_order(&[trial_a(), trial_b()], isolation, None);
        assert_eq!(after_a.trials, recording.trials, "{}", isolation.name());
        let telemetry = json::parse(&after_a.counters.to_json()).expect("telemetry parses");
        assert_eq!(telemetry, recording.telemetry, "{}", isolation.name());
    }
}
