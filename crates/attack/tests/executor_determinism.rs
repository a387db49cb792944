//! The campaign executor's determinism contract, pinned end to end.
//!
//! The [`CampaignExecutor`] promises that scheduling is invisible in the
//! output: trial transcripts, merged counters, and campaign summaries are
//! byte-identical to the scoped serial path regardless of worker count,
//! submission order, steal interleaving, or pool state (a fork of a
//! fresh boot is indistinguishable from a fresh boot). These tests pin
//! that promise differentially — scoped path vs executor, executor vs
//! executor under permuted schedules — and soak the parent pool to show
//! its footprint stays bounded by its configured capacity, not by the
//! number of campaigns served.

use cta_attack::recording::RECORDING_LABEL;
use cta_attack::{
    record_campaign, CampaignExecutor, CampaignOutput, CampaignRequest, ExecutorConfig,
    RecordedAttack, RecordingError, RecordingSpec, SprayAttack, TrialIsolation,
};
use cta_telemetry::json;

/// A deliberately small machine: the determinism claims are about
/// scheduling, not scale, and every test here boots several parents.
fn small_spec(seeds: Vec<u64>) -> RecordingSpec {
    let attack =
        SprayAttack { regions: 4, file_pages: 2, max_hammer_rows: 2, flush_per_probe: false };
    let mut spec = RecordingSpec::new(RecordedAttack::Spray(attack), seeds);
    spec.memory_bytes = 2 << 20;
    spec.ptp_bytes = 256 << 10;
    spec.protected = true;
    spec.profile_cells = true;
    spec
}

/// A request whose merged telemetry is labeled like the scoped path's, so
/// the comparison below covers the label byte too.
fn request(tenant: &str, spec: RecordingSpec) -> CampaignRequest {
    let mut request = CampaignRequest::new(tenant, spec);
    request.label = RECORDING_LABEL.to_string();
    request
}

/// The deterministic surface of a campaign output: everything except the
/// wall-clock fields (latencies and wall time are measurements of the
/// schedule, not products of it).
fn deterministic_surface(output: &CampaignOutput) -> (String, json::JsonValue) {
    (
        format!("{:?}|{:?}", output.trials, output.summary),
        json::parse(&output.counters.to_json()).expect("merged telemetry parses"),
    )
}

#[test]
fn executor_matches_scoped_path_at_every_worker_count() {
    let spec = small_spec(vec![0, 1, 2, 3]);
    let golden = record_campaign(&spec).expect("scoped path records");
    for workers in [1, 2, 3] {
        let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
        let output = exec.run(request("tenant", spec.clone())).expect("campaign completes");
        assert_eq!(
            output.trials, golden.trials,
            "worker count {workers} changed the trial transcripts"
        );
        let merged = json::parse(&output.counters.to_json()).expect("merged telemetry parses");
        assert_eq!(merged, golden.telemetry, "worker count {workers} changed the merged telemetry");
        assert_eq!(output.trial_latencies_ns.len(), golden.trials.len());
        assert_eq!(output.summary.trials, golden.trials.len());
    }
}

#[test]
fn replaying_a_recording_through_the_executor_verifies_byte_identity() {
    let recording = record_campaign(&small_spec(vec![5, 6])).expect("scoped path records");
    for workers in [1, 3] {
        let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
        let report = exec
            .replay(&recording, cta_attack::ReplayTarget::default())
            .expect("executor replay is byte-identical");
        assert_eq!(report.trials, 2);
    }
}

#[test]
fn submission_order_does_not_change_any_campaign_output() {
    // Three tenants x two campaigns, distinct seed sets, submitted
    // forward on one executor and reversed on another (different worker
    // counts, so the steal interleavings differ too). Every campaign's
    // deterministic surface must be identical across the two schedules.
    let campaigns: Vec<(String, RecordingSpec)> = (0..3u64)
        .flat_map(|tenant| {
            (0..2u64).map(move |c| {
                (format!("tenant{tenant}"), small_spec(vec![tenant * 10 + c, tenant * 10 + c + 1]))
            })
        })
        .collect();

    let run_schedule = |workers: usize, reversed: bool| -> Vec<(String, json::JsonValue)> {
        let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
        let mut order: Vec<usize> = (0..campaigns.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut tickets: Vec<(usize, cta_attack::CampaignTicket)> = order
            .into_iter()
            .map(|i| {
                let (tenant, spec) = &campaigns[i];
                (i, exec.submit(request(tenant, spec.clone())).expect("campaign submits"))
            })
            .collect();
        tickets.sort_by_key(|(i, _)| *i);
        tickets
            .into_iter()
            .map(|(_, ticket)| deterministic_surface(&ticket.wait().expect("campaign completes")))
            .collect()
    };

    let forward = run_schedule(2, false);
    let reversed = run_schedule(3, true);
    assert_eq!(forward.len(), reversed.len());
    for (i, (f, r)) in forward.iter().zip(&reversed).enumerate() {
        assert_eq!(f, r, "campaign {i} diverged between schedules");
    }
}

#[test]
fn a_lossy_flip_log_fails_the_executor_exactly_like_the_scoped_path() {
    // A 2-event window wraps on the first trial that flips more than twice.
    let mut spec = small_spec(vec![0, 1, 2, 3]);
    spec.flip_log_capacity = 2;
    let scoped = record_campaign(&spec).expect_err("a lossy campaign must not record");
    assert!(
        matches!(scoped, RecordingError::LossyFlipLog { retained: 2, .. }),
        "expected LossyFlipLog, got {scoped:?}"
    );
    for isolation in [TrialIsolation::Journal, TrialIsolation::Fork] {
        let exec = CampaignExecutor::new(ExecutorConfig { workers: 2, parents_per_worker: 2 });
        let mut request = request("tenant", spec.clone());
        request.isolation = isolation;
        let served = exec.run(request).expect_err("a lossy campaign must not complete");
        assert_eq!(served, scoped, "{isolation:?} reported a different error");
    }
}

#[test]
fn parent_pool_stays_bounded_over_a_long_campaign_stream() {
    // More boot seeds than pool slots: every worker's pool (capacity 1 per
    // tenant) must evict rather than grow, and the outputs must stay
    // byte-identical to the scoped path throughout - an evicted-and-
    // rebooted parent is indistinguishable from a cached one.
    const TENANTS: usize = 3;
    const ROUNDS: usize = 3;
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 2, parents_per_worker: 1 });

    let specs: Vec<RecordingSpec> =
        (0..TENANTS as u64).map(|t| small_spec(vec![t, t + 1])).collect();
    let goldens: Vec<_> =
        specs.iter().map(|spec| record_campaign(spec).expect("scoped path records")).collect();

    let mut tickets = Vec::new();
    for _ in 0..ROUNDS {
        for (t, spec) in specs.iter().enumerate() {
            let tenant = format!("tenant{t}");
            tickets.push((t, exec.submit(request(&tenant, spec.clone())).expect("submits")));
        }
    }
    for (t, ticket) in tickets {
        let output = ticket.wait().expect("campaign completes");
        assert_eq!(output.trials, goldens[t].trials, "tenant{t} transcript diverged");
        let merged = json::parse(&output.counters.to_json()).expect("merged telemetry parses");
        assert_eq!(merged, goldens[t].telemetry, "tenant{t} telemetry diverged");
    }

    let stats = exec.stats();
    assert_eq!(stats.campaigns, (TENANTS * ROUNDS) as u64);
    assert_eq!(stats.trials_completed, stats.trials_submitted);
    assert_eq!(
        stats.parent_boots + stats.fork_hits,
        stats.trials_completed,
        "every trial is served by exactly one boot-or-fork"
    );
    // The bound the soak exists to prove: each worker keeps one pool per
    // tenant, capped at `parents_per_worker`, so resident parents never
    // exceed workers x tenants x that cap — O(configuration), not
    // O(campaigns served). Each tenant runs 2 boot seeds through a pool
    // of 1, so it must evict rather than grow.
    let capacity = stats.workers * TENANTS as u64;
    assert!(
        stats.pool_parents <= capacity,
        "pool holds {} parents, capacity is {capacity}",
        stats.pool_parents
    );
    assert!(stats.evictions > 0, "the pools must evict, not accumulate");
    assert!(stats.pool_model_cache_bytes > 0, "resident parents publish their footprint");
    assert!(stats.pool_row_store_bytes > 0, "and their row contents");
}
