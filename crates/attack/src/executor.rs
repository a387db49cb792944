//! The persistent campaign executor: boot once, journal per trial.
//!
//! [`crate::recording`]'s scoped path builds a fresh kernel per trial —
//! boot plus vulnerability-map compile dominate each trial's cost. A
//! service facing sustained campaign traffic amortizes that: every worker
//! thread keeps per-tenant [`KernelPool`]s of booted *parent* kernels
//! (keyed by the full machine configuration, seed included) and serves
//! each trial from one of them. Campaigns are submitted as indexed trial
//! batches to a [`cta_parallel::executor::Executor`]: one worker's deque
//! per campaign (locality with that worker's warm parents), work stealing
//! when the queue saturates.
//!
//! **Trial isolation.** Every trial runs **in place** on its pooled
//! parent under [`KernelPool::run_journaled`]'s undo journal, which rolls
//! the parent back afterwards — O(touched state) per trial. Rollback is
//! byte-identical to a fresh boot (pinned against [`cta_vm::Kernel::fork`]
//! by the journal fuzzers and the fork-isolation suite, and against the
//! scoped path's fresh boots by the isolation differential suite).
//! Vulnerability maps a trial builds stay in the parent's shared row-map
//! store, so later trials on that parent reuse them.
//!
//! **Cancellation.** [`CampaignExecutor::cancel`] drops a submitted
//! campaign's still-queued trials from the worker deques; in-flight
//! trials drain normally. Dropped trials surface as
//! [`CampaignOutput::dropped_trials`] and are excluded from the merged
//! transcript/counters; a `cancelled` event is emitted on the JSONL
//! stream.
//!
//! **Determinism contract.** A campaign's observable output — its
//! [`TrialRecord`]s, merged [`Counters`], and [`CampaignSummary`] — is
//! byte-identical to the scoped serial path for the same
//! [`RecordingSpec`] and [`ReplayTarget`], regardless of worker count,
//! submission order, or steal interleaving:
//!
//! * each trial runs [`crate::recording`]'s shared trial body on a
//!   journaled parent booted from the trial's own spec + seed (rollback ≡
//!   fresh boot, pinned by the isolation differential and fork-isolation
//!   suites);
//! * results carry their batch index, and the merge — identical to the
//!   scoped path's — folds shards in seed order on whichever worker
//!   completes the campaign;
//! * error selection is lowest-seed-index, matching
//!   [`cta_parallel::try_parallel_map`].
//!
//! Wall-clock observables (per-trial latency, campaign wall time) are
//! deliberately kept *outside* the deterministic output: they ride in
//! separate [`CampaignOutput`] fields and the JSONL event stream, never
//! in the merged counters.
//!
//! **Telemetry.** Each completed campaign emits one JSON line through the
//! strict [`cta_telemetry::jsonl`] writer (schema:
//! [`cta_telemetry::schema::validate_executor_event`]) as soon as its
//! merge finishes — incremental, tail-able progress for a long-running
//! queue. Pool pressure is published through per-worker gauges
//! ([`ServiceStats`]), including the byte-accounted
//! `pool_model_cache_bytes`.
//!
//! **Memory bounds.** Each pooled resource has one bound, fixed when it
//! is built: a worker's pool per tenant holds at most
//! [`ExecutorConfig::parents_per_worker`] parents (LRU-evicted), and each
//! parent's DRAM model caches hold at most their fixed row capacity.
//! Nothing changes either bound at run time.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cta_parallel::executor::{BatchHandle, Executor, Ticket};
use cta_telemetry::json::{self, JsonValue};
use cta_telemetry::jsonl::JsonlWriter;
use cta_telemetry::Counters;
use cta_vm::KernelPool;

use crate::campaign::CampaignSummary;
use crate::recording::{
    compare_with_recording, run_trial_on, Recording, RecordingError, RecordingSpec, ReplayReport,
    ReplayTarget, TrialRecord,
};

/// Default snapshot label for executor-merged campaign telemetry; matches
/// the `executor` schema declaration in [`cta_telemetry::schema`].
pub const EXECUTOR_LABEL: &str = "executor";

/// Static configuration of a [`CampaignExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Worker threads (`0` = one per core).
    pub workers: usize,
    /// Parent-kernel pool capacity per worker per tenant (clamped to 1),
    /// fixed for the executor's lifetime.
    pub parents_per_worker: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { workers: 0, parents_per_worker: 4 }
    }
}

/// The two ways a trial could be isolated from its pooled parent. The
/// executor journals every trial; no field, method or library code path
/// uses this type. It is kept only because the repository benchmark's
/// traced replay names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrialIsolation {
    /// A [`cta_vm::Kernel::fork`] of the parent per trial.
    Fork,
    /// The trial in place on the parent under an undo journal.
    #[default]
    Journal,
}

/// One campaign submission: whose it is and what to run.
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// Tenant whose parent pools serve the campaign.
    pub tenant: String,
    /// Label of the merged telemetry snapshot. Defaults to
    /// [`EXECUTOR_LABEL`]; the replay path uses the recording label so
    /// merged telemetry compares byte-identically.
    pub label: String,
    /// The campaign spec (attack, machine, seeds).
    pub spec: RecordingSpec,
    /// Implementation target (the installed defense).
    pub target: ReplayTarget,
}

impl CampaignRequest {
    /// A request for `tenant` running `spec` under the default target.
    pub fn new(tenant: impl Into<String>, spec: RecordingSpec) -> Self {
        CampaignRequest {
            tenant: tenant.into(),
            label: EXECUTOR_LABEL.to_string(),
            spec,
            target: ReplayTarget::default(),
        }
    }
}

/// A completed campaign's merged output.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// Executor-assigned campaign id (submission order).
    pub campaign: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Per-trial transcripts, in seed order — byte-identical to the
    /// scoped serial path.
    pub trials: Vec<TrialRecord>,
    /// Merged campaign telemetry — byte-identical to the scoped path.
    pub counters: Counters,
    /// Aggregate outcome counts.
    pub summary: CampaignSummary,
    /// Wall-clock latency of each trial (submit → trial completion), in
    /// completion-index order. Nondeterministic by nature; never part of
    /// the merged counters.
    pub trial_latencies_ns: Vec<u64>,
    /// Wall-clock campaign latency (submit → merge), nanoseconds.
    pub wall_ns: u64,
    /// Trials dropped by [`CampaignExecutor::cancel`] before they ran.
    /// Dropped trials appear in no transcript, counter, or summary — the
    /// merged output covers exactly the trials that ran — so this count
    /// (like the latencies) stays outside the deterministic observables.
    pub dropped_trials: u64,
}

/// A point-in-time view of the executor's scheduling and pool gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Campaigns submitted.
    pub campaigns: u64,
    /// Trials submitted.
    pub trials_submitted: u64,
    /// Trials completed.
    pub trials_completed: u64,
    /// Trials served from a stolen deque entry.
    pub steals: u64,
    /// Parent kernels booted (pool misses).
    pub parent_boots: u64,
    /// Trials served from an already-resident parent (pool hits).
    pub pool_hits: u64,
    /// Parents evicted to respect pool capacities.
    pub evictions: u64,
    /// Parents currently resident across all workers and tenants.
    pub pool_parents: u64,
    /// DRAM model-cache bytes held by resident parents. A memory gauge:
    /// each parent's caches are bounded by their row capacity, not by
    /// bytes.
    pub pool_model_cache_bytes: u64,
    /// DRAM row-content bytes held by resident parents, shared row
    /// buffers counted once per parent and compact rows by their bit
    /// lists. A memory gauge, each parent's count taken when it boots
    /// (rollback leaves a parent's rows as they were).
    pub pool_row_store_bytes: u64,
}

struct CampaignCtx {
    id: u64,
    tenant: String,
    label: String,
    spec: RecordingSpec,
    target: ReplayTarget,
    submitted: Instant,
}

struct TrialJob {
    ctx: Arc<CampaignCtx>,
    index: usize,
}

struct ExecutedTrial {
    record: TrialRecord,
    shard: Counters,
    latency_ns: u64,
}

/// One trial slot's result: `Ok(Some)` for a trial that ran, `Ok(None)`
/// for a slot dropped by [`CampaignExecutor::cancel`] before it ran.
type TrialOut = Result<Option<ExecutedTrial>, RecordingError>;

/// Shared (worker-visible) executor state.
struct ExecState {
    parents_per_worker: usize,
    // Tenant → home worker, first-come sequential so tenants spread
    // evenly across workers regardless of their names.
    homes: Mutex<HashMap<String, usize>>,
    jsonl: Mutex<Option<JsonlWriter<Box<dyn Write + Send>>>>,
    next_event: AtomicU64,
    // Campaign id → (tenant, batch handle) for campaigns still in flight;
    // entries are removed by the completion hook, so `cancel` can only
    // target batches whose merge has not yet run.
    active: Mutex<HashMap<u64, (String, BatchHandle<TrialOut>)>>,
    // Per-worker gauges, republished after every trial (totals, not
    // deltas, so updates are idempotent).
    pool_parents: Vec<AtomicU64>,
    pool_bytes: Vec<AtomicU64>,
    pool_row_bytes: Vec<AtomicU64>,
    boots: Vec<AtomicU64>,
    hits: Vec<AtomicU64>,
    evictions: Vec<AtomicU64>,
}

/// Worker-local context: per-tenant parent pools. Lives and dies on its
/// worker thread (`Kernel` is deliberately `!Send`).
struct WorkerCtx {
    worker: usize,
    pools: HashMap<String, KernelPool<String>>,
    state: Arc<ExecState>,
}

impl WorkerCtx {
    fn run(&mut self, job: TrialJob) -> TrialOut {
        let ctx = &job.ctx;
        let seed = ctx.spec.seeds[job.index];
        let capacity = self.state.parents_per_worker;
        let pool =
            self.pools.entry(ctx.tenant.clone()).or_insert_with(|| KernelPool::new(capacity));

        let key = parent_key(&ctx.spec, ctx.target, seed);
        let spec = &ctx.spec;
        let target = ctx.target;
        let boot = || spec.builder(seed, target).build();
        let trial = pool
            .run_journaled(&key, boot, |kernel| run_trial_on(kernel, spec, seed))
            .map_err(RecordingError::Vm)?;
        let result = trial.map(|(record, shard)| {
            Some(ExecutedTrial { record, shard, latency_ns: elapsed_ns(ctx.submitted) })
        });
        self.publish_gauges();
        result
    }

    fn publish_gauges(&self) {
        let mut parents = 0u64;
        let mut bytes = 0u64;
        let mut row_bytes = 0u64;
        let mut boots = 0u64;
        let mut hits = 0u64;
        let mut evictions = 0u64;
        for pool in self.pools.values() {
            parents += pool.len() as u64;
            bytes += pool.model_cache_bytes();
            row_bytes += pool.row_store_bytes();
            let stats = pool.stats();
            boots += stats.boots;
            hits += stats.hits;
            evictions += stats.evictions;
        }
        let w = self.worker;
        self.state.pool_row_bytes[w].store(row_bytes, Ordering::Relaxed);
        self.state.pool_parents[w].store(parents, Ordering::Relaxed);
        self.state.pool_bytes[w].store(bytes, Ordering::Relaxed);
        self.state.boots[w].store(boots, Ordering::Relaxed);
        self.state.hits[w].store(hits, Ordering::Relaxed);
        self.state.evictions[w].store(evictions, Ordering::Relaxed);
    }
}

/// Everything a parent kernel's boot depends on, canonically encoded.
/// Attack parameters and `flip_log_capacity` are deliberately absent —
/// they act on the *trial* — so campaigns with different attacks share
/// parents booted for the same machine. Float parameters are encoded by
/// bit pattern (exact, locale-free).
fn parent_key(spec: &RecordingSpec, target: ReplayTarget, seed: u64) -> String {
    let d = &spec.disturbance;
    format!(
        "m{}:r{}:c{}:p{}:prot{}:prof{}:pf{:016x}:rev{:016x}:ht{}:trc{}:s{}:def{:?}",
        spec.memory_bytes,
        spec.row_bytes,
        spec.cell_period_rows,
        spec.ptp_bytes,
        spec.protected as u8,
        spec.profile_cells as u8,
        d.pf.to_bits(),
        d.reverse_rate.to_bits(),
        d.hammer_threshold,
        d.trc_ns,
        seed,
        target.defense,
    )
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Handle to one submitted campaign.
pub struct CampaignTicket {
    id: u64,
    ticket: Ticket<TrialOut>,
    merged: Arc<Mutex<Option<Result<CampaignOutput, RecordingError>>>>,
}

impl CampaignTicket {
    /// The executor-assigned campaign id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True once the campaign has fully merged; `wait` will not block.
    pub fn is_done(&self) -> bool {
        self.ticket.is_done()
    }

    /// Blocks until the campaign completes and yields its merged output
    /// (the completion hook has already emitted the JSONL event by then).
    ///
    /// # Errors
    ///
    /// The campaign's deterministic merge error: the lowest-seed-index
    /// trial failure, a lossy flip log, or accounting drift.
    pub fn wait(self) -> Result<CampaignOutput, RecordingError> {
        let _ = self.ticket.wait();
        self.merged
            .lock()
            .expect("merge slot poisoned")
            .take()
            .expect("completion hook merges before wait returns")
    }
}

/// The persistent boot-once, isolate-per-trial campaign service. See the
/// module docs for the determinism contract.
pub struct CampaignExecutor {
    exec: Executor<TrialJob, TrialOut>,
    state: Arc<ExecState>,
    next_campaign: AtomicU64,
}

impl CampaignExecutor {
    /// Spawns the worker pool. Workers boot parents lazily, per tenant,
    /// on first use.
    #[must_use]
    pub fn new(config: ExecutorConfig) -> Self {
        let workers = cta_parallel::worker_count(config.workers);
        let state = Arc::new(ExecState {
            parents_per_worker: config.parents_per_worker.max(1),
            homes: Mutex::new(HashMap::new()),
            jsonl: Mutex::new(None),
            next_event: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
            pool_parents: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            pool_bytes: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            pool_row_bytes: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            boots: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            hits: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            evictions: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let init_state = Arc::clone(&state);
        let exec = Executor::new(
            workers,
            move |worker| WorkerCtx {
                worker,
                pools: HashMap::new(),
                state: Arc::clone(&init_state),
            },
            |ctx: &mut WorkerCtx, job| ctx.run(job),
        );
        CampaignExecutor { exec, state, next_campaign: AtomicU64::new(0) }
    }

    /// Streams one strict-JSON line per completed campaign into `sink`
    /// (replacing any previous sink). Lines are written by the completing
    /// worker, inside the completion hook, so the stream is ordered by
    /// completion.
    pub fn set_jsonl_sink<W: Write + Send + 'static>(&self, sink: W) {
        *self.state.jsonl.lock().expect("jsonl poisoned") =
            Some(JsonlWriter::new(Box::new(sink) as Box<dyn Write + Send>));
    }

    /// Submits a campaign; trials fan out across the worker pool.
    ///
    /// # Errors
    ///
    /// [`RecordingError::RetentionDisabled`] when the spec disables
    /// flip-log retention (checked at submission, like the scoped path).
    pub fn submit(&self, request: CampaignRequest) -> Result<CampaignTicket, RecordingError> {
        if request.spec.flip_log_capacity == 0 {
            return Err(RecordingError::RetentionDisabled);
        }
        let id = self.next_campaign.fetch_add(1, Ordering::Relaxed);
        let ctx = Arc::new(CampaignCtx {
            id,
            tenant: request.tenant,
            label: request.label,
            spec: request.spec,
            target: request.target,
            submitted: Instant::now(),
        });
        let jobs: Vec<TrialJob> = (0..ctx.spec.seeds.len())
            .map(|index| TrialJob { ctx: Arc::clone(&ctx), index })
            .collect();
        let merged: Arc<Mutex<Option<Result<CampaignOutput, RecordingError>>>> =
            Arc::new(Mutex::new(None));
        let merged_slot = Arc::clone(&merged);
        let hook_state = Arc::clone(&self.state);
        // Same tenant → same home worker, so a tenant's parents stay
        // warm in one pool instead of every worker booting its own copy.
        let affinity = {
            let mut homes = self.state.homes.lock().expect("homes poisoned");
            let next = homes.len();
            *homes.entry(ctx.tenant.clone()).or_insert(next)
        };
        let tenant = ctx.tenant.clone();
        let ticket =
            self.exec.submit_with_affinity(affinity, jobs, move |results: &mut [TrialOut]| {
                let output = merge_campaign(&ctx, results);
                if let Ok(output) = &output {
                    emit_event(&hook_state, output);
                }
                *merged_slot.lock().expect("merge slot poisoned") = Some(output);
                hook_state.active.lock().expect("active poisoned").remove(&ctx.id);
            });
        // Register for cancellation — then undo the registration if the
        // campaign already completed (the hook's removal may have run
        // before the insert; an empty campaign completes inline above).
        self.state.active.lock().expect("active poisoned").insert(id, (tenant, ticket.handle()));
        if ticket.is_done() {
            self.state.active.lock().expect("active poisoned").remove(&id);
        }
        Ok(CampaignTicket { id, ticket, merged })
    }

    /// Drops campaign `campaign`'s still-queued trials from the worker
    /// deques, returning how many were dropped. In-flight trials drain
    /// normally; the campaign still merges (over the trials that ran) and
    /// its ticket still completes, with the drop count in
    /// [`CampaignOutput::dropped_trials`]. When trials were dropped, a
    /// `cancelled` event is emitted on the JSONL stream. Cancelling an
    /// unknown or already-merged campaign is a no-op returning 0.
    pub fn cancel(&self, campaign: u64) -> usize {
        let entry = self
            .state
            .active
            .lock()
            .expect("active poisoned")
            .get(&campaign)
            .map(|(tenant, handle)| (tenant.clone(), handle.clone()));
        let Some((tenant, handle)) = entry else { return 0 };
        let dropped = self.exec.cancel(&handle, |_| Ok(None));
        if dropped > 0 {
            emit_cancelled_event(&self.state, &tenant, campaign, dropped as u64);
        }
        dropped
    }

    /// Submits `request` and blocks for its merged output.
    ///
    /// # Errors
    ///
    /// Everything [`Self::submit`] and [`CampaignTicket::wait`] can raise.
    pub fn run(&self, request: CampaignRequest) -> Result<CampaignOutput, RecordingError> {
        self.submit(request)?.wait()
    }

    /// Replays a golden recording *through the executor* under `target`,
    /// asserting byte-identity with the recorded transcript — the service
    /// path proves it reproduces the scoped path's artifact exactly.
    ///
    /// # Errors
    ///
    /// [`RecordingError::Mismatch`] on the first divergence, plus
    /// everything the scoped replay can raise.
    pub fn replay(
        &self,
        recording: &Recording,
        target: ReplayTarget,
    ) -> Result<ReplayReport, RecordingError> {
        let request = CampaignRequest {
            tenant: "replay".to_string(),
            label: crate::recording::RECORDING_LABEL.to_string(),
            spec: recording.spec.clone(),
            target,
        };
        let output = self.run(request)?;
        compare_with_recording(recording, &output.trials, &output.counters, target)
    }

    /// Point-in-time scheduling and pool gauges.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let exec = self.exec.stats();
        let sum = |slots: &[AtomicU64]| slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        ServiceStats {
            workers: self.exec.workers() as u64,
            campaigns: exec.batches,
            trials_submitted: exec.submitted,
            trials_completed: exec.completed,
            steals: exec.stolen,
            parent_boots: sum(&self.state.boots),
            pool_hits: sum(&self.state.hits),
            evictions: sum(&self.state.evictions),
            pool_parents: sum(&self.state.pool_parents),
            pool_model_cache_bytes: sum(&self.state.pool_bytes),
            pool_row_store_bytes: sum(&self.state.pool_row_bytes),
        }
    }

    /// Records the service gauges into `counters` under the `executor`
    /// group.
    pub fn record_counters(&self, counters: &mut Counters) {
        let s = self.stats();
        counters.set_u64("executor", "workers", s.workers);
        counters.set_u64("executor", "campaigns", s.campaigns);
        counters.set_u64("executor", "trials_submitted", s.trials_submitted);
        counters.set_u64("executor", "trials_completed", s.trials_completed);
        counters.set_u64("executor", "steals", s.steals);
        counters.set_u64("executor", "parent_boots", s.parent_boots);
        counters.set_u64("executor", "pool_hits", s.pool_hits);
        counters.set_u64("executor", "evictions", s.evictions);
        counters.set_u64("executor", "pool_parents", s.pool_parents);
        counters.set_u64("executor", "pool_model_cache_bytes", s.pool_model_cache_bytes);
        counters.set_u64("executor", "pool_row_store_bytes", s.pool_row_store_bytes);
    }
}

/// The deterministic seed-order merge — line for line the scoped path's
/// (`run_trials` + `record`): lowest-index error selection (a lossy flip
/// log is a trial error), shard merge in seed order, summary recording,
/// and the flip-accounting cross-check. The trial records are
/// moved out of `results`, which the hook owns; the slots are left empty.
fn merge_campaign(
    ctx: &CampaignCtx,
    results: &mut [TrialOut],
) -> Result<CampaignOutput, RecordingError> {
    let mut counters = Counters::new(&ctx.label);
    let mut trials = Vec::with_capacity(results.len());
    let mut latencies = Vec::with_capacity(results.len());
    let mut dropped_trials = 0u64;
    for result in results {
        match std::mem::replace(result, Ok(None)) {
            Err(e) => return Err(e),
            // A slot cancelled before its trial ran: excluded from the
            // merge entirely, counted separately.
            Ok(None) => dropped_trials += 1,
            Ok(Some(trial)) => {
                counters.merge(&trial.shard);
                trials.push(trial.record);
                latencies.push(trial.latency_ns);
            }
        }
    }
    let summary = CampaignSummary::from_outcomes(trials.iter().map(|t| &t.outcome));
    counters.record(&summary);
    // A campaign whose every trial was cancelled before running merged no
    // telemetry shards: there are no DRAM counters to cross-check.
    if !trials.is_empty() {
        crate::recording::verify_flip_accounting(&counters, &trials)?;
    }
    Ok(CampaignOutput {
        campaign: ctx.id,
        tenant: ctx.tenant.clone(),
        trials,
        counters,
        summary,
        trial_latencies_ns: latencies,
        wall_ns: elapsed_ns(ctx.submitted),
        dropped_trials,
    })
}

/// Emits one campaign event line (best effort: a broken sink must not
/// fail the campaign, whose output is already merged).
fn emit_event(state: &ExecState, output: &CampaignOutput) {
    // A campaign that ran no trials merged no telemetry shards; its
    // snapshot would fail the executor-event schema (and, when every slot
    // was cancelled, the `cancelled` event already tells the story).
    if output.trials.is_empty() {
        return;
    }
    let mut guard = state.jsonl.lock().expect("jsonl poisoned");
    let Some(writer) = guard.as_mut() else { return };
    let Ok(telemetry) = json::parse(&output.counters.to_json()) else { return };
    let mut latencies = output.trial_latencies_ns.clone();
    latencies.sort_unstable();
    let p99 = percentile_ns(&latencies, 99);
    let seq = state.next_event.fetch_add(1, Ordering::Relaxed);
    let doc = JsonValue::Object(vec![
        ("event".to_string(), JsonValue::String("campaign".to_string())),
        ("seq".to_string(), JsonValue::Number(seq as f64)),
        ("tenant".to_string(), JsonValue::String(output.tenant.clone())),
        ("campaign".to_string(), JsonValue::Number(output.campaign as f64)),
        ("trials".to_string(), JsonValue::Number(output.summary.trials as f64)),
        ("dropped_trials".to_string(), JsonValue::Number(clamp_json(output.dropped_trials))),
        ("successes".to_string(), JsonValue::Number(output.summary.successes as f64)),
        ("total_flips".to_string(), JsonValue::Number(clamp_json(output.summary.total_flips))),
        ("wall_ns".to_string(), JsonValue::Number(clamp_json(output.wall_ns))),
        ("p99_trial_ns".to_string(), JsonValue::Number(clamp_json(p99))),
        ("telemetry".to_string(), telemetry),
    ]);
    let _ = writer.write(&doc);
}

/// Emits one `cancelled` event line (best effort, like campaign events):
/// which campaign lost queued trials, and how many.
fn emit_cancelled_event(state: &ExecState, tenant: &str, campaign: u64, dropped: u64) {
    let mut guard = state.jsonl.lock().expect("jsonl poisoned");
    let Some(writer) = guard.as_mut() else { return };
    let seq = state.next_event.fetch_add(1, Ordering::Relaxed);
    let doc = JsonValue::Object(vec![
        ("event".to_string(), JsonValue::String("cancelled".to_string())),
        ("seq".to_string(), JsonValue::Number(seq as f64)),
        ("tenant".to_string(), JsonValue::String(tenant.to_string())),
        ("campaign".to_string(), JsonValue::Number(campaign as f64)),
        ("dropped_trials".to_string(), JsonValue::Number(clamp_json(dropped))),
    ]);
    let _ = writer.write(&doc);
}

/// Clamps a u64 into JSON's exact-integer range (2^53); gauges this large
/// are saturated, not meaningful.
fn clamp_json(value: u64) -> f64 {
    value.min(1 << 53) as f64
}

/// The `p`-th percentile (nearest-rank) of an ascending-sorted slice.
fn percentile_ns(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50), 50);
        assert_eq!(percentile_ns(&v, 99), 99);
        assert_eq!(percentile_ns(&v, 100), 100);
        assert_eq!(percentile_ns(&[7], 99), 7);
        assert_eq!(percentile_ns(&[], 99), 0);
    }

    #[test]
    fn parent_key_separates_configs_and_merges_attacks() {
        use crate::{RecordedAttack, SprayAttack, TemplatingAttack};
        let spray = RecordingSpec::new(RecordedAttack::Spray(SprayAttack::default()), vec![1]);
        let mut templ =
            RecordingSpec::new(RecordedAttack::Templating(TemplatingAttack::default()), vec![1]);
        templ.threads = 4; // implementation knob: must not split parents
        let target = ReplayTarget::default();
        // Same machine + seed, different attack: same parent.
        assert_eq!(parent_key(&spray, target, 1), parent_key(&templ, target, 1));
        // Different seed: different vulnerability universe, new parent.
        assert_ne!(parent_key(&spray, target, 1), parent_key(&spray, target, 2));
        // Different machine: new parent.
        let mut bigger = spray.clone();
        bigger.memory_bytes *= 2;
        assert_ne!(parent_key(&spray, target, 1), parent_key(&bigger, target, 1));
    }
}
