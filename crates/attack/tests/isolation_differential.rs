//! Trial-isolation differential suite: journaled in-place trials must be
//! observably identical to trials on freshly booted machines.
//!
//! The executor runs each trial directly on a pooled parent kernel under
//! an undo journal and rolls it back. Its determinism contract says that
//! is invisible: transcripts, merged counters, summaries, and contents
//! hashes must be byte-identical to [`record_campaign`], which boots a
//! fresh machine per trial. These tests pin that, plus the cancellation
//! path (alone and racing completion) and the pool gauges a rollback must
//! leave unchanged. Kernel-level journal ≡ fork is pinned by the journal
//! fuzzers and the fork-isolation suite.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cta_attack::recording::RECORDING_LABEL;
use cta_attack::{
    record_campaign, CampaignExecutor, CampaignOutput, CampaignRequest, CampaignSummary,
    ExecutorConfig, RecordedAttack, Recording, RecordingSpec, ReplayTarget, SprayAttack,
    TemplatingAttack,
};
use cta_telemetry::json;
use cta_telemetry::schema::validate_executor_event;

/// Small machine, enough trials to exercise pool hits and rollback reuse.
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

fn request(tenant: &str, spec: RecordingSpec) -> CampaignRequest {
    let mut request = CampaignRequest::new(tenant, spec);
    request.label = RECORDING_LABEL.to_string();
    request
}

/// A `Write` sink the test can read back after the executor wrote to it.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl SharedSink {
    fn lines(&self) -> Vec<String> {
        let buf = self.0.lock().expect("sink poisoned");
        String::from_utf8(buf.clone())
            .expect("jsonl is utf-8")
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Asserts a journaled campaign's output equals the fresh-boot recording
/// of the same spec: transcripts, summary, merged telemetry, and each
/// trial's final contents hash.
fn assert_matches_fresh_boots(journaled: &CampaignOutput, fresh: &Recording) {
    assert_eq!(journaled.trials, fresh.trials, "trial transcripts diverged");
    let summary = CampaignSummary::from_outcomes(fresh.trials.iter().map(|t| &t.outcome));
    assert_eq!(journaled.summary, summary, "summaries diverged");
    let merged = json::parse(&journaled.counters.to_json()).expect("merged telemetry parses");
    assert_eq!(merged, fresh.telemetry, "merged telemetry diverged");
    for (j, f) in journaled.trials.iter().zip(&fresh.trials) {
        assert_eq!(
            j.contents_hash, f.contents_hash,
            "final module contents diverged at seed {}",
            j.seed
        );
    }
}

#[test]
fn journal_matches_fresh_boots() {
    // Two trials per seed value so repeat trials run on a rolled-back
    // parent (the case a leaky rollback would corrupt).
    let spec = small_spec(vec![0, 1, 0, 1]);
    let fresh = record_campaign(&spec).expect("scoped path records");
    for workers in [1, 2] {
        let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
        let journaled = exec.run(request("tenant", spec.clone())).expect("campaign completes");
        assert_matches_fresh_boots(&journaled, &fresh);
        let stats = exec.stats();
        assert_eq!(stats.parent_boots + stats.pool_hits, stats.trials_completed);
        if workers == 1 {
            assert_eq!(stats.pool_hits, 2, "the repeated seeds ran on rolled-back parents");
        }
    }
}

#[test]
fn journal_matches_fresh_boots_for_the_templating_attack() {
    // A second attack shape: templating leans on flip-log drains and
    // profiling, the states whose journaling is easiest to get wrong.
    let attack = TemplatingAttack { arena_pages: 48, max_attempts: 2, flush_per_probe: false };
    let mut spec = RecordingSpec::new(RecordedAttack::Templating(attack), vec![3, 4, 3]);
    spec.memory_bytes = 2 << 20;
    spec.ptp_bytes = 256 << 10;
    spec.profile_cells = true;

    let fresh = record_campaign(&spec).expect("scoped path records");
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
    let journaled = exec.run(request("tenant", spec)).expect("campaign completes");
    assert_matches_fresh_boots(&journaled, &fresh);
    assert_eq!(exec.stats().pool_hits, 1, "seed 3 ran again on its rolled-back parent");
}

#[test]
fn journal_replay_reproduces_the_scoped_recording() {
    let recording = record_campaign(&small_spec(vec![5, 6])).expect("scoped path records");
    for workers in [1, 3] {
        let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
        let report = exec
            .replay(&recording, ReplayTarget::default())
            .expect("journaled replay is byte-identical");
        assert_eq!(report.trials, 2);
    }
}

#[test]
fn pool_gauges_are_unchanged_by_repeated_trials() {
    // Rollback restores parents byte-identically, so the published memory
    // gauges must not depend on how many trials each parent served.
    let gauges = |seeds: Vec<u64>| {
        let trials = seeds.len();
        let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
        let output = exec.run(request("tenant", small_spec(seeds))).expect("completes");
        assert_eq!(output.summary.trials, trials);
        let stats = exec.stats();
        (stats.pool_row_store_bytes, stats.pool_model_cache_bytes)
    };
    let once = gauges(vec![7, 8]);
    let repeated = gauges(vec![7, 8, 7, 8]);
    assert!(once.0 > 0, "resident parents publish their footprint");
    assert_eq!(repeated, once, "repeated trials leaked into the pool gauges");
}

#[test]
fn cancel_drops_queued_trials_and_emits_a_cancelled_event() {
    // One worker: campaign A's trials occupy the queue head, so campaign
    // B's trials sit queued when the cancel lands.
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
    let sink = SharedSink::default();
    exec.set_jsonl_sink(sink.clone());

    let first = exec.submit(request("tenant", small_spec(vec![0, 1, 2, 3])));
    let doomed_seeds = 6u64;
    let doomed = exec.submit(request("tenant", small_spec((10..10 + doomed_seeds).collect())));
    let (first, doomed) = (first.expect("submits"), doomed.expect("submits"));

    let dropped = exec.cancel(doomed.id());
    assert!(dropped > 0, "queued trials were dropped");
    // Cancelling again (or cancelling an unknown id) is a no-op.
    assert_eq!(exec.cancel(9999), 0);

    let kept = first.wait().expect("uncancelled campaign completes");
    assert_eq!(kept.summary.trials, 4);
    assert_eq!(kept.dropped_trials, 0);

    let output = doomed.wait().expect("cancelled campaign still merges");
    assert_eq!(output.dropped_trials, dropped as u64);
    assert_eq!(output.summary.trials as u64 + output.dropped_trials, doomed_seeds);
    assert_eq!(output.trials.len(), output.summary.trials);
    assert_eq!(output.trial_latencies_ns.len(), output.summary.trials);

    // The stream carries the cancellation and every line passes the
    // executor-event schema (campaign and cancelled shapes both).
    let lines = sink.lines();
    let mut saw_cancelled = false;
    for line in &lines {
        let doc = json::parse(line).expect("jsonl line parses");
        assert_eq!(validate_executor_event(&doc), vec![], "line failed schema: {line}");
        if doc.get("event") == Some(&json::JsonValue::String("cancelled".to_string())) {
            saw_cancelled = true;
            assert_eq!(
                doc.get("dropped_trials"),
                Some(&json::JsonValue::Number(dropped as f64)),
                "cancelled event counts the dropped trials"
            );
        }
    }
    assert!(saw_cancelled, "a cancelled event was emitted: {lines:?}");
}

#[test]
fn cancel_racing_completion_keeps_every_invariant() {
    // A cancel lands at a different point of a campaign each round: before
    // any trial ran, mid-campaign, or after the merge. Whichever it hits,
    // the drop count, the trials that ran and the event stream must agree.
    let spec = small_spec((20..26).collect());
    let seeds = spec.seeds.len() as u64;
    let golden = record_campaign(&spec).expect("scoped path records");
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 2, parents_per_worker: 6 });
    let sink = SharedSink::default();
    exec.set_jsonl_sink(sink.clone());

    let mut dropped_by_campaign = Vec::new();
    for round in 0..12u64 {
        let ticket = exec.submit(request("tenant", spec.clone())).expect("submits");
        let id = ticket.id();
        let (output, dropped) = std::thread::scope(|scope| {
            let canceller = scope.spawn(|| {
                std::thread::sleep(Duration::from_micros(round * 700));
                exec.cancel(id)
            });
            let output = ticket.wait().expect("a cancelled campaign still merges");
            (output, canceller.join().expect("canceller finishes"))
        });
        assert_eq!(output.dropped_trials, dropped as u64, "round {round}: drop count");
        assert_eq!(output.summary.trials as u64 + output.dropped_trials, seeds, "round {round}");
        for trial in &output.trials {
            let want = golden.trials.iter().find(|t| t.seed == trial.seed).expect("golden seed");
            assert_eq!(trial, want, "round {round}: seed {} diverged", trial.seed);
        }
        dropped_by_campaign.push((id, dropped));
    }

    let lines = sink.lines();
    for (id, dropped) in dropped_by_campaign {
        let cancelled = lines
            .iter()
            .map(|line| json::parse(line).expect("jsonl line parses"))
            .filter(|doc| {
                doc.get("event") == Some(&json::JsonValue::String("cancelled".to_string()))
                    && doc.get("campaign") == Some(&json::JsonValue::Number(id as f64))
            })
            .count();
        assert_eq!(cancelled, usize::from(dropped > 0), "campaign {id}: cancelled events");
    }

    // The pooled parents came through every race clean.
    let full = exec.run(request("tenant", spec)).expect("completes");
    assert_eq!(full.dropped_trials, 0);
    assert_eq!(full.trials, golden.trials);
    let merged = json::parse(&full.counters.to_json()).expect("merged telemetry parses");
    assert_eq!(merged, golden.telemetry);
}
