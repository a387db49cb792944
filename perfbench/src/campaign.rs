//! The campaign workloads (spray-pool, module-sweep): a closed-loop client
//! keeping [`OUTSTANDING`] campaigns in a [`CampaignExecutor`].

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use cta_attack::recording::RECORDING_LABEL;
use cta_attack::{
    record_campaign, replay_recording, verify_flip_accounting, CampaignExecutor, CampaignOutput,
    CampaignSummary, CampaignTicket, ExecutorConfig, RecordedAttack, Recording, RecordingError,
    ReplayTarget, ServiceStats, TrialIsolation, TrialRecord,
};
use cta_telemetry::{json, Counters};
use cta_vm::Kernel;

use crate::clock::StealClock;
use crate::digest::{self, Digest};
use crate::layers;
use crate::plan::{
    CampaignPlan, Machine, Planned, Workload, DEFAULT_SEED, DIGEST_CAMPAIGNS, OUTSTANDING,
    PARENTS_PER_WORKER, WORKERS,
};
use crate::report::Report;
use crate::stats::{chunked_rate, median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::SETUP_REPS;

type Outcome = Result<CampaignOutput, RecordingError>;

/// Trials per chunk whose median rate a run reports.
const RATE_CHUNK: usize = 64;

/// How often the client checks its outstanding campaigns.
const POLL: Duration = Duration::from_micros(200);

/// Runs `plan`'s campaigns from `first` on, keeping [`OUTSTANDING`] in
/// flight while `more(next index)` holds: a closed loop of
/// [`OUTSTANDING`] clients, each submitting its next campaign as soon as
/// its previous one completes. Hands each result to `done` in completion
/// order, after refilling the freed slot, so bookkeeping never idles a
/// worker. Returns the next unsubmitted index.
pub fn drive(
    exec: &CampaignExecutor,
    plan: &CampaignPlan,
    first: usize,
    mut more: impl FnMut(usize) -> bool,
    mut done: impl FnMut(usize, &Planned, Instant, Outcome),
) -> usize {
    let mut inflight = Vec::new();
    let mut next = first;
    let mut refill = |inflight: &mut Vec<_>, next: &mut usize| {
        while inflight.len() < OUTSTANDING && more(*next) {
            let planned = plan.campaign(*next);
            let submitted = Instant::now();
            let ticket = exec.submit(planned.request());
            inflight.push((*next, planned, submitted, ticket));
            *next += 1;
        }
    };
    refill(&mut inflight, &mut next);
    while !inflight.is_empty() {
        let finished = |(_, _, _, t): &(usize, Planned, Instant, Result<CampaignTicket, _>)| {
            t.as_ref().map_or(true, CampaignTicket::is_done)
        };
        let Some(slot) = inflight.iter().position(finished) else {
            std::thread::sleep(POLL);
            continue;
        };
        let (index, planned, submitted, ticket) = inflight.remove(slot);
        let outcome = ticket.and_then(CampaignTicket::wait);
        refill(&mut inflight, &mut next);
        done(index, &planned, submitted, outcome);
    }
    next
}

/// What a run keeps of its completed campaigns (the outputs themselves,
/// flip transcripts included, are dropped as they arrive).
#[derive(Default)]
struct Tally {
    // Per trial: submission and completion, and its share of its
    // campaign's simulated DRAM accesses.
    done: Vec<(Instant, Instant, f64)>,
    failed: u64,
    counters: Option<Counters>,
    digests: BTreeMap<usize, u64>,
    // Identical requests must produce identical outputs.
    by_request: HashMap<(String, Vec<u64>), u64>,
    exploits: BTreeMap<Machine, (u64, u64)>,
    problems: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, index: usize, planned: &Planned, submitted: Instant, outcome: &Outcome) {
        let output = match outcome {
            Ok(output) => output,
            Err(e) => {
                self.failed += planned.spec.seeds.len() as u64;
                self.problems.push(format!("campaign {index} ({}) failed: {e}", planned.tenant));
                return;
            }
        };
        let accesses = layers::dram_accesses(&output.counters) as f64 / output.trials.len() as f64;
        self.done.extend(
            output
                .trial_latencies_ns
                .iter()
                .map(|&ns| (submitted, submitted + Duration::from_nanos(ns), accesses)),
        );
        self.counters.get_or_insert_with(|| Counters::new(RECORDING_LABEL)).merge(&output.counters);
        let d = digest::campaign(&output.trials);
        if index < DIGEST_CAMPAIGNS {
            self.digests.insert(index, d);
        }
        let key = (planned.tenant.clone(), planned.spec.seeds.clone());
        if *self.by_request.entry(key).or_insert(d) != d {
            self.problems.push(format!("campaign {index}: same request, different output"));
        }
        let successes = output.trials.iter().filter(|t| t.outcome.success()).count() as u64;
        let tally = self.exploits.entry(planned.machine).or_default();
        tally.0 += successes;
        tally.1 += output.trials.len() as u64;
        if planned.machine == Machine::Cta && successes > 0 {
            self.problems.push(format!("campaign {index}: {successes} exploits on a CTA machine"));
        }
    }
}

/// Runs campaigns `0..count` of `workload` at `seed` on a fresh executor
/// with `workers` workers and returns the digest of their outputs.
pub fn digest_of_first(workload: Workload, seed: u64, workers: usize, count: usize) -> u64 {
    let plan = CampaignPlan::new(workload, seed);
    let exec =
        CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: PARENTS_PER_WORKER });
    let mut tally = Tally::default();
    drive(&exec, &plan, 0, |i| i < count, |i, p, t, o| tally.absorb(i, p, t, &o));
    assert!(tally.problems.is_empty(), "{:?}", tally.problems);
    fold(&tally.digests, count).expect("every campaign completed")
}

/// Folds per-campaign digests `0..count` in request order.
fn fold(digests: &BTreeMap<usize, u64>, count: usize) -> Option<u64> {
    let mut d = Digest::default();
    for index in 0..count {
        d.word(*digests.get(&index)?);
    }
    Some(d.value())
}

/// Re-runs a campaign through the scoped path and requires byte equality
/// with the executor's output: `record_campaign` on undefended machines,
/// `replay_recording` under the campaign's defense otherwise.
fn scoped_matches(planned: &Planned, output: &CampaignOutput) -> Result<(), String> {
    let target = planned.request().target;
    let mut spec = planned.spec.clone();
    // Thread count is free to vary: the scoped path is seed-ordered.
    spec.threads = WORKERS;
    let telemetry = json::parse(&output.counters.to_json()).map_err(|e| e.to_string())?;
    if target == ReplayTarget::default() {
        let recording = record_campaign(&spec).map_err(|e| e.to_string())?;
        if recording.trials != output.trials {
            return Err("trial transcripts differ from the scoped path".to_string());
        }
        if recording.telemetry != telemetry {
            return Err("merged telemetry differs from the scoped path".to_string());
        }
        Ok(())
    } else {
        let recording = Recording { spec, trials: output.trials.clone(), telemetry };
        replay_recording(&recording, target).map(|_| ()).map_err(|e| e.to_string())
    }
}

/// Replays sampled trials serially through the public calls the
/// executor's trial body makes, with a span around each.
struct Replayer {
    tracer: Tracer,
    parents: HashMap<(String, u64), Kernel>,
    // Replayed shards, merged as the executor merges them (the merge is
    // part of the timed telemetry work).
    shards: Counters,
    next_op: u64,
    // Per replayed trial: executor latency minus traced body time.
    wait_ms: Vec<f64>,
    body_ms: Vec<f64>,
    problems: Vec<String>,
}

/// What a trial body produces, compared field by field with the
/// executor's record of the same trial.
struct Replayed {
    outcome: cta_attack::AttackOutcome,
    flips: Vec<cta_dram::FlipEvent>,
    contents_hash: u64,
    end_ns: u64,
}

impl Replayer {
    fn new() -> Self {
        Replayer {
            tracer: Tracer::default(),
            parents: HashMap::new(),
            shards: Counters::new(RECORDING_LABEL),
            next_op: 0,
            wait_ms: Vec::new(),
            body_ms: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Replays the merge of a completed campaign and trial `k` of it.
    fn replay(&mut self, planned: &Planned, output: &CampaignOutput, k: usize) {
        let op = self.next_op;
        self.next_op += 1;
        let merged = self.tracer.time("attack.merge", op, || {
            verify_flip_accounting(&output.counters, &output.trials)
                .map(|()| CampaignSummary::from_outcomes(output.trials.iter().map(|t| &t.outcome)))
        });
        if let Err(e) = merged {
            self.problems.push(format!("replayed merge: {e}"));
        }

        let op = self.next_op;
        self.next_op += 1;
        let seed = planned.spec.seeds[k];
        let key = (planned.tenant.clone(), seed);
        let root = self.tracer.enter("trial", op);
        let body = self.body(planned, &key, op);
        self.tracer.exit(root);
        let span = &self.tracer.spans()[root];
        let body_ns = span.end_ns - span.start_ns;
        // Parents whose seed the stream never reuses are evicted, outside
        // the trial, as the executor's pool evicts them on a later boot.
        if planned.spec.seeds.iter().any(|&s| s != seed) {
            self.parents.remove(&key);
        }

        let expected = &output.trials[k];
        match body {
            Ok(replayed) => {
                if let Some(what) = differs(&replayed, expected) {
                    self.problems.push(format!("replayed trial {k} of {}: {what}", planned.tenant));
                }
            }
            Err(e) => self.problems.push(format!("replayed trial {k}: {e}")),
        }
        self.body_ms.push(body_ns as f64 / 1e6);
        if let Some(&latency_ns) = output.trial_latencies_ns.get(k) {
            self.wait_ms.push((latency_ns as f64 - body_ns as f64) / 1e6);
        }
    }

    /// Boot or pool hit, isolate, attack, counters, digest, drain, restore.
    fn body(
        &mut self,
        planned: &Planned,
        key: &(String, u64),
        op: u64,
    ) -> Result<Replayed, String> {
        let Replayer { tracer, parents, shards, .. } = self;
        let target = planned.request().target;
        if !parents.contains_key(key) {
            let parent = tracer
                .time("core.boot", op, || planned.spec.builder(key.1, target).build())
                .map_err(|e| e.to_string())?;
            parents.insert(key.clone(), parent);
        }
        let parent = parents.get_mut(key).expect("booted above");
        match TrialIsolation::default() {
            TrialIsolation::Fork => {
                let mut kernel = tracer.time("vm.isolate", op, || parent.fork());
                let result = trial(tracer, shards, &mut kernel, planned, op);
                tracer.time("vm.restore", op, || drop(kernel));
                result
            }
            TrialIsolation::Journal => {
                tracer.time("vm.isolate", op, || parent.journal_begin());
                let result = trial(tracer, shards, parent, planned, op);
                tracer.time("vm.restore", op, || parent.journal_rollback());
                result
            }
        }
    }
}

/// The trial proper, on an isolated kernel.
fn trial(
    tracer: &mut Tracer,
    shards: &mut Counters,
    kernel: &mut Kernel,
    planned: &Planned,
    op: u64,
) -> Result<Replayed, String> {
    kernel.dram_mut().set_flip_log_capacity(planned.spec.flip_log_capacity);
    let outcome = tracer
        .time("attack.run", op, || match &planned.spec.attack {
            RecordedAttack::Spray(a) => a.run(kernel),
            RecordedAttack::Templating(a) => a.run(kernel),
        })
        .map_err(|e| e.to_string())?;
    tracer.time("telemetry.record", op, || {
        let mut shard = Counters::new(RECORDING_LABEL);
        kernel.record_counters(&mut shard);
        shards.merge(&shard);
    });
    let end_ns = kernel.dram().now_ns();
    let contents_hash = tracer.time("dram.digest", op, || contents_hash(kernel))?;
    let log = tracer.time("dram.flip_log_drain", op, || kernel.dram_mut().take_flip_log());
    Ok(Replayed { outcome, flips: log.events, contents_hash, end_ns })
}

/// The recording format's contents hash, streamed row by row through one
/// buffer like the executor's trial body.
fn contents_hash(kernel: &Kernel) -> Result<u64, String> {
    let dram = kernel.dram();
    let capacity = dram.capacity_bytes();
    let row_bytes = dram.geometry().row_bytes();
    if !row_bytes.is_multiple_of(8) {
        return Err(format!("{row_bytes}-byte rows do not stream word by word"));
    }
    let mut row = vec![0u8; row_bytes as usize];
    let mut d = Digest::default();
    let mut addr = 0;
    while addr < capacity {
        let take = row_bytes.min(capacity - addr) as usize;
        dram.peek_into(addr, &mut row[..take]).map_err(|e| e.to_string())?;
        d.bytes(&row[..take]);
        addr += take as u64;
    }
    Ok(d.value())
}

fn differs(replayed: &Replayed, expected: &TrialRecord) -> Option<&'static str> {
    if replayed.outcome != expected.outcome {
        Some("attack outcome")
    } else if replayed.flips != expected.flips {
        Some("flip transcript")
    } else if replayed.contents_hash != expected.contents_hash {
        Some("contents hash")
    } else if replayed.end_ns != expected.end_ns {
        Some("simulated clock")
    } else {
        None
    }
}

/// One timed closed-loop phase.
struct Phase {
    tally: Tally,
    start: Instant,
    // Submissions stop here; the phase ends when the last one drained.
    window_end: Instant,
    end: Instant,
    next: usize,
}

fn timed(
    exec: &CampaignExecutor,
    plan: &CampaignPlan,
    first: usize,
    window: Duration,
    mut replayer: Option<&mut Replayer>,
) -> Phase {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut sampled = 0usize;
    let next = drive(
        exec,
        plan,
        first,
        |_| start.elapsed() < window,
        |index, planned, submitted, outcome| {
            tally.absorb(index, planned, submitted, &outcome);
            if let (Some(r), Ok(output)) = (replayer.as_deref_mut(), &outcome) {
                r.replay(planned, output, sampled % output.trials.len());
                sampled += 1;
            }
        },
    );
    Phase { tally, start, window_end: start + window, end: Instant::now(), next }
}

/// Runs a campaign workload and reports its metrics, plus the spans of a
/// traced run.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> (Report, Option<Tracer>) {
    let clock = StealClock::start();
    let plan = CampaignPlan::new(workload, seed);
    let round = plan.round();
    let mut problems = Vec::new();

    // Set-up: executor creation plus the warm-up round in which every
    // tenant's parent boots, repeated on fresh executors.
    let mut setups = Vec::new();
    let mut exec = None;
    let mut warm: Vec<(usize, Planned, Instant, Outcome)> = Vec::new();
    let mut warm_digests: Option<BTreeMap<usize, u64>> = None;
    for _ in 0..SETUP_REPS {
        drop(exec.take());
        warm.clear();
        let start = Instant::now();
        let e = CampaignExecutor::new(ExecutorConfig {
            workers: WORKERS,
            parents_per_worker: PARENTS_PER_WORKER,
        });
        drive(&e, &plan, 0, |i| i < round, |i, p, t, o| warm.push((i, p.clone(), t, o)));
        setups.push((start, Instant::now()));
        exec = Some(e);
        let mut tally = Tally::default();
        for (i, p, t, o) in &warm {
            tally.absorb(*i, p, *t, o);
        }
        problems.append(&mut tally.problems);
        match &warm_digests {
            Some(first) if *first != tally.digests => {
                problems.push("warm-up outputs differ between executors".to_string());
            }
            Some(_) => {}
            None => warm_digests = Some(tally.digests),
        }
    }
    let exec = exec.expect("at least one set-up repetition");
    // Byte equality with the scoped path, one campaign per tenant, outside
    // the timed window.
    for (index, planned, _, outcome) in &warm {
        if let Ok(output) = outcome {
            if let Err(e) = scoped_matches(planned, output) {
                problems.push(format!("campaign {index} ({}): {e}", planned.tenant));
            }
        }
    }
    drop(warm);

    let before = exec.stats();
    let window = Duration::from_secs(seconds);
    let (untraced, traced) = if trace {
        let half = window / 2;
        let untraced = timed(&exec, &plan, round, half, None);
        let mut replayer = Replayer::new();
        let traced = timed(&exec, &plan, untraced.next, half, Some(&mut replayer));
        (untraced, Some((traced, replayer)))
    } else {
        (timed(&exec, &plan, round, window, None), None)
    };
    let after = exec.stats();
    let peak_rss = peak_rss_mb();
    drop(exec);
    let timeline = clock.finish();

    let mut digests = warm_digests.unwrap_or_default();
    let mut phases = vec![&untraced];
    phases.extend(traced.as_ref().map(|(phase, _)| phase));
    let mut attempted = 0;
    let mut failed = 0;
    let mut merged = Counters::new(RECORDING_LABEL);
    let mut trials = 0;
    let mut exploits: BTreeMap<Machine, (u64, u64)> = BTreeMap::new();
    for phase in &phases {
        let t = &phase.tally;
        attempted += t.done.len() as u64 + t.failed;
        failed += t.failed;
        trials += t.done.len() as u64;
        digests.extend(&t.digests);
        problems.extend(t.problems.iter().cloned());
        if let Some(c) = &t.counters {
            merged.merge(c);
        }
        for (m, (s, n)) in &t.exploits {
            let e = exploits.entry(*m).or_default();
            e.0 += s;
            e.1 += n;
        }
    }
    match fold(&digests, DIGEST_CAMPAIGNS) {
        Some(d) => {
            eprintln!("perfbench: {workload} output digest {d:#018x}");
            if seed == DEFAULT_SEED && d != workload.stored_digest() {
                problems.push(format!(
                    "digest {d:#018x} differs from the stored {:#018x}",
                    workload.stored_digest()
                ));
            }
        }
        None => problems.push(format!("fewer than {DIGEST_CAMPAIGNS} campaigns completed")),
    }
    if let Some((_, r)) = &traced {
        problems.extend(r.problems.iter().cloned());
    }

    let mut report = Report { attempted, ..Report::default() };
    let u = &untraced.tally;
    if let Some((traced, replayer)) = &traced {
        per_layer(&mut report, &merged, trials, &exploits, &before, &after, replayer);
        let untraced_tps = u.done.len() as f64 / timeline.between(untraced.start, untraced.end);
        let traced_tps =
            traced.tally.done.len() as f64 / timeline.between(traced.start, traced.end);
        report.metric("trace.overhead_pct", (1.0 - traced_tps / untraced_tps) * 100.0, "%");
    } else {
        // Completions while submissions still ran: the drain at the end
        // runs below the offered load.
        let loaded: Vec<(f64, f64)> = u
            .done
            .iter()
            .filter(|&&(_, completed, _)| completed <= untraced.window_end)
            .map(|&(_, completed, accesses)| (timeline.run_s(completed), accesses))
            .collect();
        let trials: Vec<(f64, f64)> = loaded.iter().map(|&(t, _)| (t, 1.0)).collect();
        let mut rate = |events: &[(f64, f64)], name: &str| {
            chunked_rate(events, RATE_CHUNK).unwrap_or_else(|| {
                problems.push(format!("{name}: fewer than {} trials", RATE_CHUNK + 1));
                0.0
            })
        };
        report.metric("trials_per_s", rate(&trials, "trials_per_s"), "1/s");
        let accesses = rate(&loaded, "sim_accesses_per_s");
        let latencies_ms: Vec<f64> = u
            .done
            .iter()
            .map(|&(submitted, completed, _)| timeline.between(submitted, completed) * 1e3)
            .collect();
        for (name, p) in [("trial_p50_ms", 50), ("trial_p90_ms", 90)] {
            let value = percentile(&latencies_ms, p).unwrap_or_else(|| {
                problems.push(format!("{name}: too few trials ({})", latencies_ms.len()));
                0.0
            });
            report.metric(name, value, "ms");
        }
        report.metric("sim_accesses_per_s", accesses, "1/s");
        let setup_s: Vec<f64> = setups.iter().map(|&(a, b)| timeline.between(a, b)).collect();
        report.metric("setup_s", median(&setup_s).expect("set-up ran"), "s");
        report.metric("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB");
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    report.correct = problems.is_empty() && failed == 0;
    report.failed = if report.correct { 0 } else { attempted.max(failed) };
    (report, traced.map(|(_, r)| r.tracer))
}

fn per_layer(
    report: &mut Report,
    merged: &Counters,
    trials: u64,
    exploits: &BTreeMap<Machine, (u64, u64)>,
    before: &ServiceStats,
    after: &ServiceStats,
    replayer: &Replayer,
) {
    let per_op = replayer.tracer.per_op_ms();
    layers::span_metrics(report, &per_op);
    let boots = after.parent_boots - before.parent_boots;
    report.metric("core.boots", boots as f64, "count");
    layers::counter_metrics(report, merged, trials);
    for machine in [Machine::Stock, Machine::Cta, Machine::SoftTrr, Machine::BlockHammer] {
        let (successes, n) = exploits.get(&machine).copied().unwrap_or((0, 0));
        let ratio = if n == 0 { 0.0 } else { successes as f64 / n as f64 };
        report.metric(format!("attack.exploit_ratio.{}", machine.name()), ratio, "ratio");
    }
    let completed = after.trials_completed - before.trials_completed;
    let per_trial = |v: u64| if completed == 0 { 0.0 } else { v as f64 / completed as f64 };
    report.metric("executor.wait_ms", median(&replayer.wait_ms).unwrap_or(0.0), "ms");
    report.metric("executor.steals_per_trial", per_trial(after.steals - before.steals), "ratio");
    report.metric("executor.pool_hit_ratio", 1.0 - per_trial(boots), "ratio");
    report.metric("executor.evictions", (after.evictions - before.evictions) as f64, "count");
    report.metric(
        "executor.pool_model_cache_mb",
        after.pool_model_cache_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    trace_metrics(report, &replayer.tracer, &replayer.body_ms);
}

/// Share of traced body time no child span covers, and the median body
/// time.
pub fn trace_metrics(report: &mut Report, tracer: &Tracer, body_ms: &[f64]) {
    let own = tracer.self_times_ns();
    let (mut unattributed, mut total) = (0u64, 0u64);
    for (span, own) in tracer.spans().iter().zip(own) {
        if span.parent.is_none() && matches!(span.name, "trial" | "cell") {
            unattributed += own;
            total += span.end_ns - span.start_ns;
        }
    }
    let pct = if total == 0 { 0.0 } else { unattributed as f64 / total as f64 * 100.0 };
    report.metric("trace.unattributed_pct", pct, "%");
    report.metric("trace.body_ms", median(body_ms).unwrap_or(0.0), "ms");
}
