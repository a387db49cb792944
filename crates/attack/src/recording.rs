//! Flip-log record/replay: capture a campaign's complete flip transcript,
//! then prove every later build reproduces it byte for byte.
//!
//! The simulator's determinism contract says a campaign is a pure function
//! of its spec: the same seeds produce the same flips, the same DRAM
//! contents, and the same telemetry no matter how many threads run the
//! trials, or whether the executor serves them from pooled parents. The
//! differential test suites check that contract pairwise at every commit;
//! a [`Recording`] turns it into an
//! *artifact*: a golden transcript checked into the repository that every
//! future build must reproduce exactly. A regression that perturbs the
//! simulation — a reordered hammer loop, an off-by-one in decay windows, a
//! row store that drifts — fails replay with a positioned mismatch instead
//! of silently changing every downstream experiment.
//!
//! The subsystem exists because the flip log is *bounded*: the
//! [`RingLog`](cta_telemetry::RingLog) retains a window and counts
//! evictions. A recording whose window wrapped is not a transcript — it is
//! a suffix — so [`record_campaign`] fails loudly ([`RecordingError::LossyFlipLog`])
//! whenever a trial drops events, and refuses outright
//! ([`RecordingError::RetentionDisabled`]) when the spec disables
//! retention. Replay re-checks both, and additionally cross-checks the
//! accounting invariant: the campaign's `total_flips` counter must equal
//! the transcript length plus reported drops, and the DRAM module's own
//! directional flip counters must agree ([`verify_flip_accounting`]).
//!
//! Recordings serialize through the strict [`cta_telemetry::json`] emitter
//! and parse back through the strict parser, so a fixture that loads at
//! all is standards-valid JSON with a schema-valid embedded telemetry
//! snapshot ([`cta_telemetry::schema`]).
//!
//! What is — and is not — free to vary at replay:
//!
//! * **Threads and trial isolation**: implementation knobs, recorded
//!   nowhere in the transcript's meaning.
//! * **`map_gen`**: the serialized spec names the vulnerability-map
//!   derivation, which fixes the deterministic universe a seed selects.
//!   The per-row stream (`"stream"`) is the only derivation, so it is
//!   always written and any other value is refused as malformed.

use std::fmt;

use cta_core::{DefenseSpec, SystemBuilder};
use cta_dram::{DisturbanceParams, FlipDirection, FlipEvent, FlipLog, RowId};
use cta_telemetry::json::{self, JsonValue};
use cta_telemetry::{schema, Counters};
use cta_vm::{Kernel, VmError};

use crate::campaign::CampaignSummary;
use crate::outcome::AttackOutcome;
use crate::{SprayAttack, TemplatingAttack};

/// Current on-disk format version (bumped on incompatible changes).
/// Version 2 switched `contents_hash` from byte-at-a-time FNV-1a to the
/// wordwise variant ([`fnv1a64_wordwise`]): the byte-serial multiply
/// chain capped transcript hashing near 700 MB/s and dominated every
/// trial's non-attack cost, which in turn capped the persistent
/// executor's fork amortization. Version-1 fixtures must be regenerated
/// (`replay-check --record`).
pub const RECORDING_VERSION: u64 = 2;

/// Counters label used for a recording's embedded telemetry snapshot;
/// matches the `recording` schema declaration in [`cta_telemetry::schema`].
pub const RECORDING_LABEL: &str = "recording";

/// The vulnerability-map derivation every recording is made under (the
/// per-row stream), written as `spec.map_gen`. A recording naming any
/// other derivation was made in another deterministic universe and is
/// refused as malformed.
const MAP_GEN: &str = "stream";

/// The attack a recording runs each trial.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedAttack {
    /// PTE-spray privilege escalation ([`SprayAttack`]).
    Spray(SprayAttack),
    /// Drammer-style templating ([`TemplatingAttack`]).
    Templating(TemplatingAttack),
}

impl RecordedAttack {
    /// Runs the attack against one trial kernel.
    fn run(&self, kernel: &mut Kernel) -> Result<AttackOutcome, VmError> {
        match self {
            RecordedAttack::Spray(a) => a.run(kernel),
            RecordedAttack::Templating(a) => a.run(kernel),
        }
    }

    /// Stable kind tag used in the serialized form.
    fn kind(&self) -> &'static str {
        match self {
            RecordedAttack::Spray(_) => "spray",
            RecordedAttack::Templating(_) => "templating",
        }
    }
}

/// Everything needed to re-run a recorded campaign deterministically.
///
/// Implementation knobs (threads aside) are deliberately absent: they must
/// not change the transcript, and replay exists to prove it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingSpec {
    /// The attack each trial runs.
    pub attack: RecordedAttack,
    /// Machine size in bytes.
    pub memory_bytes: u64,
    /// DRAM row size in bytes.
    pub row_bytes: u64,
    /// Cell-type alternation period in rows.
    pub cell_period_rows: u64,
    /// `ZONE_PTP` size in bytes (only meaningful when `protected`).
    pub ptp_bytes: u64,
    /// Whether CTA protection is enabled.
    pub protected: bool,
    /// Identify cell types with the boot-time profiler instead of the
    /// module's ground truth. Part of the spec (it changes what the
    /// machine computes at boot), defaulting to `false`; a missing key in
    /// a serialized recording means `false`.
    pub profile_cells: bool,
    /// Disturbance (RowHammer) model parameters.
    pub disturbance: DisturbanceParams,
    /// One trial per seed, in order.
    pub seeds: Vec<u64>,
    /// Worker threads for the trial loop (any value yields the same
    /// transcript; recorded so replays default to the same schedule).
    pub threads: usize,
    /// Flip-log retention capacity per trial module. Must be large enough
    /// to hold every flip of a trial; zero is rejected at record time.
    pub flip_log_capacity: usize,
}

impl RecordingSpec {
    /// A spec running `attack` on small default machines over `seeds`.
    pub fn new(attack: RecordedAttack, seeds: Vec<u64>) -> Self {
        RecordingSpec {
            attack,
            memory_bytes: 8 << 20,
            row_bytes: 4096,
            cell_period_rows: 64,
            ptp_bytes: 512 * 1024,
            protected: false,
            profile_cells: false,
            disturbance: DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() },
            seeds,
            threads: 1,
            flip_log_capacity: cta_telemetry::DEFAULT_LOG_CAPACITY,
        }
    }

    /// The builder for one trial's kernel under implementation `target` —
    /// the machine every trial of this spec boots (and the machine the
    /// persistent executor boots once per tenant/config and forks per
    /// trial).
    pub fn builder(&self, seed: u64, target: ReplayTarget) -> SystemBuilder {
        SystemBuilder::new(self.memory_bytes)
            .row_bytes(self.row_bytes)
            .cell_period(self.cell_period_rows)
            .ptp_bytes(self.ptp_bytes)
            .protected(self.protected)
            .profile_cells(self.profile_cells)
            .disturbance(self.disturbance)
            .seed(seed)
            .defense(target.defense)
    }
}

/// What a replay runs against beyond the recorded spec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTarget {
    /// Software defense installed on the trial machines. Golden gates
    /// replay under the default [`DefenseSpec::None`], which must be
    /// byte-identical to the recorded (undefended) campaign. Any installed
    /// defense diverges at least at the telemetry comparison (defended
    /// kernels emit a `defense` counter group): a pure
    /// [`DefenseSpec::Observer`] replays the flip transcript, contents,
    /// clock, and outcome exactly and fails only there, while an *acting*
    /// defense diverges in the transcript itself. Both are deliberate
    /// divergence probes, expected to fail with
    /// [`RecordingError::Mismatch`].
    pub defense: DefenseSpec,
}

impl fmt::Display for ReplayTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "defense={}", self.defense)
    }
}

/// One trial's complete observable record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The trial's seed.
    pub seed: u64,
    /// The attack's outcome, including its phase log.
    pub outcome: AttackOutcome,
    /// Every disturbance flip the module recorded, in order.
    pub flips: Vec<FlipEvent>,
    /// FNV-1a 64 hash of the module's full final contents.
    pub contents_hash: u64,
    /// The module's simulated clock at trial end, nanoseconds.
    pub end_ns: u64,
}

/// A recorded campaign: spec, per-trial transcripts, and the merged
/// telemetry snapshot (label [`RECORDING_LABEL`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// The campaign spec replay re-runs.
    pub spec: RecordingSpec,
    /// Per-trial transcripts, in seed order.
    pub trials: Vec<TrialRecord>,
    /// The merged campaign telemetry, parsed from the deterministic
    /// [`Counters::to_json`] emission.
    pub telemetry: JsonValue,
}

/// Result of a successful replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The implementation combination that reproduced the recording.
    pub target: ReplayTarget,
    /// Trials replayed.
    pub trials: usize,
    /// Total flip events verified byte-identical.
    pub flips_verified: u64,
}

/// Why recording, replay, or (de)serialization failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordingError {
    /// A trial kernel failed to build or run.
    Vm(VmError),
    /// The spec disables flip-log retention (`flip_log_capacity == 0`), so
    /// recording would produce an empty-but-"successful" transcript.
    RetentionDisabled,
    /// A trial's flip log wrapped: the transcript is a suffix, not a
    /// record. Raise `flip_log_capacity` above the trial's flip count.
    LossyFlipLog {
        /// Seed of the lossy trial.
        seed: u64,
        /// Events evicted from the bounded window.
        dropped: u64,
        /// Events retained.
        retained: usize,
    },
    /// The flip-accounting invariant failed: telemetry counters and the
    /// flip transcript disagree about how many flips happened.
    Accounting {
        /// Which comparison failed.
        what: &'static str,
        /// Count derived from the flip transcript.
        from_log: u64,
        /// Count reported by telemetry.
        from_counters: u64,
    },
    /// A replayed trial diverged from the recording.
    Mismatch {
        /// Seed of the diverging trial (`u64::MAX` for campaign-level
        /// observables such as merged telemetry).
        seed: u64,
        /// Which observable diverged.
        what: &'static str,
        /// Human-readable divergence detail.
        detail: String,
    },
    /// The serialized form is not strict JSON.
    Json(json::JsonError),
    /// The serialized form is valid JSON of the wrong shape.
    Malformed {
        /// `.`-separated path to the offending member.
        path: String,
        /// What is wrong there.
        message: String,
    },
    /// A value does not fit a JSON number exactly (> 2⁵³).
    Unrepresentable {
        /// Which value overflowed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for RecordingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordingError::Vm(e) => write!(f, "trial failed: {e}"),
            RecordingError::RetentionDisabled => f.write_str(
                "recording requires flip-log retention; flip_log_capacity is 0 \
                 (every flip would be dropped and the transcript would be empty)",
            ),
            RecordingError::LossyFlipLog { seed, dropped, retained } => write!(
                f,
                "trial seed={seed}: flip log wrapped ({dropped} events dropped, {retained} \
                 retained); raise flip_log_capacity to record a complete transcript"
            ),
            RecordingError::Accounting { what, from_log, from_counters } => write!(
                f,
                "flip accounting drift ({what}): transcript says {from_log}, \
                 telemetry says {from_counters}"
            ),
            RecordingError::Mismatch { seed, what, detail } => {
                if *seed == u64::MAX {
                    write!(f, "replay mismatch ({what}): {detail}")
                } else {
                    write!(f, "replay mismatch at seed={seed} ({what}): {detail}")
                }
            }
            RecordingError::Json(e) => write!(f, "recording is not strict JSON: {e}"),
            RecordingError::Malformed { path, message } => {
                write!(f, "malformed recording at {path}: {message}")
            }
            RecordingError::Unrepresentable { what, value } => {
                write!(f, "{what} = {value} exceeds 2^53 and cannot be stored as JSON")
            }
        }
    }
}

impl std::error::Error for RecordingError {}

impl From<VmError> for RecordingError {
    fn from(e: VmError) -> Self {
        RecordingError::Vm(e)
    }
}

impl From<json::JsonError> for RecordingError {
    fn from(e: json::JsonError) -> Self {
        RecordingError::Json(e)
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Wordwise FNV-1a 64: one xor-multiply round per little-endian `u64`
/// word instead of per byte, with a trailing partial word (if any)
/// folded byte-at-a-time, so inputs shorter than a word hash exactly as
/// byte-serial FNV-1a does. Eight times fewer sequential multiplies than
/// the byte-serial form. This is the `contents_hash` function of recording format
/// version 2, which trials compute without copying through
/// [`cta_dram::DramModule::contents_hash`]; this whole-buffer form is its
/// reference definition.
#[must_use]
pub fn fnv1a64_wordwise(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Trailing partial word: byte-at-a-time rounds, so inputs that differ
    // only in a zero-padded tail still hash differently.
    for &b in words.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Runs one trial under `target` and captures its full observable record
/// plus a telemetry shard. Counter capture happens *before* the flip log
/// is drained (so the `flip_log_retained` gauge reflects the trial), and
/// record/replay share this function, so the order is identical on both
/// sides by construction.
fn run_trial(
    spec: &RecordingSpec,
    target: ReplayTarget,
    seed: u64,
) -> Result<(TrialRecord, Counters), RecordingError> {
    let mut kernel = spec.builder(seed, target).build()?;
    run_trial_on(&mut kernel, spec, seed)
}

/// The trial body shared by the scoped path above and the persistent
/// executor (which supplies a pooled parent under an undo journal, or a
/// fork of one — either observably identical to a fresh boot, which is
/// what makes the executor's output byte-identical to this path by
/// construction). The drained flip log moves into the record; a trial
/// whose bounded log dropped events fails here with
/// [`RecordingError::LossyFlipLog`], so both paths report the
/// lowest-index failing trial, whatever made it fail.
pub(crate) fn run_trial_on(
    kernel: &mut Kernel,
    spec: &RecordingSpec,
    seed: u64,
) -> Result<(TrialRecord, Counters), RecordingError> {
    kernel.dram_mut().set_flip_log_capacity(spec.flip_log_capacity);
    let outcome = spec.attack.run(kernel)?;
    let mut shard = Counters::new(RECORDING_LABEL);
    kernel.record_counters(&mut shard);
    let end_ns = kernel.dram().now_ns();
    let contents_hash = kernel.dram().contents_hash();
    let FlipLog { events: flips, dropped } = kernel.dram_mut().take_flip_log();
    if dropped > 0 {
        return Err(RecordingError::LossyFlipLog { seed, dropped, retained: flips.len() });
    }
    Ok((TrialRecord { seed, outcome, flips, contents_hash, end_ns }, shard))
}

/// Runs every trial of `spec` under `target`, in seed order, enforcing
/// the lossless-transcript requirement per trial.
fn run_trials(
    spec: &RecordingSpec,
    target: ReplayTarget,
) -> Result<(Vec<TrialRecord>, Counters), RecordingError> {
    if spec.flip_log_capacity == 0 {
        return Err(RecordingError::RetentionDisabled);
    }
    let shards = cta_parallel::try_parallel_map(
        spec.seeds.len(),
        spec.threads.max(1),
        || (),
        |_, i| run_trial(spec, target, spec.seeds[i]),
    )?;

    let mut counters = Counters::new(RECORDING_LABEL);
    let mut trials = Vec::with_capacity(shards.len());
    for (record, shard) in shards {
        counters.merge(&shard);
        trials.push(record);
    }
    let summary = CampaignSummary::from_outcomes(trials.iter().map(|t| &t.outcome));
    counters.record(&summary);
    Ok((trials, counters))
}

/// Asserts the flip-accounting invariant between a campaign's telemetry
/// and its flip transcript: `campaign.total_flips` must equal the
/// transcript's event count, and the DRAM module's directional flip
/// counters must sum to the same value. Any drift means some layer
/// counted flips the transcript never saw (or vice versa).
///
/// # Errors
///
/// [`RecordingError::Accounting`] naming the first disagreeing pair.
pub fn verify_flip_accounting(
    counters: &Counters,
    trials: &[TrialRecord],
) -> Result<(), RecordingError> {
    let from_log: u64 = trials.iter().map(|t| t.flips.len() as u64).sum();
    let campaign_flips = counters.group("campaign").and_then(|g| g.get_u64("total_flips")).ok_or(
        RecordingError::Accounting {
            what: "campaign.total_flips missing",
            from_log,
            from_counters: 0,
        },
    )?;
    if campaign_flips != from_log {
        return Err(RecordingError::Accounting {
            what: "campaign.total_flips vs flip transcript",
            from_log,
            from_counters: campaign_flips,
        });
    }
    let dram = counters.group("dram");
    let directional = dram
        .and_then(|g| Some(g.get_u64("flips_one_to_zero")? + g.get_u64("flips_zero_to_one")?))
        .ok_or(RecordingError::Accounting {
            what: "dram flip counters missing",
            from_log,
            from_counters: 0,
        })?;
    if directional != from_log {
        return Err(RecordingError::Accounting {
            what: "dram directional flips vs flip transcript",
            from_log,
            from_counters: directional,
        });
    }
    let dropped = dram.and_then(|g| g.get_u64("flip_log_dropped")).unwrap_or(0);
    if dropped != 0 {
        return Err(RecordingError::Accounting {
            what: "dram.flip_log_dropped must be zero in a lossless recording",
            from_log,
            from_counters: dropped,
        });
    }
    Ok(())
}

/// Records a campaign: runs `spec` under the default implementation
/// target and captures the complete flip transcript, final contents hash,
/// clock, outcome, and merged telemetry per trial.
///
/// # Errors
///
/// [`RecordingError::RetentionDisabled`] when the spec disables flip-log
/// retention; [`RecordingError::LossyFlipLog`] when any trial's log
/// wrapped; [`RecordingError::Accounting`] on counter/transcript drift;
/// [`RecordingError::Vm`] when a trial fails to build or run.
pub fn record_campaign(spec: &RecordingSpec) -> Result<Recording, RecordingError> {
    let (trials, counters) = run_trials(spec, ReplayTarget::default())?;
    verify_flip_accounting(&counters, &trials)?;
    let telemetry = json::parse(&counters.to_json())?;
    Ok(Recording { spec: spec.clone(), trials, telemetry })
}

/// Replays a recording under `target`, asserting every observable matches
/// byte for byte: each trial's seed, its flip transcript (row, bit,
/// direction, timestamp of every event), final DRAM contents hash,
/// simulated clock and attack outcome (including its phase log), and the
/// merged telemetry snapshot. Also re-verifies the flip-accounting
/// invariant.
///
/// # Errors
///
/// [`RecordingError::Mismatch`] on the first divergence, plus everything
/// [`record_campaign`] can raise.
pub fn replay_recording(
    recording: &Recording,
    target: ReplayTarget,
) -> Result<ReplayReport, RecordingError> {
    let (trials, counters) = run_trials(&recording.spec, target)?;
    compare_with_recording(recording, &trials, &counters, target)
}

/// The replay comparison proper, shared by [`replay_recording`] and the
/// persistent executor's replay path: asserts `trials` + `counters`
/// (however they were produced) match the recording byte for byte, after
/// re-verifying the flip-accounting invariant.
pub(crate) fn compare_with_recording(
    recording: &Recording,
    trials: &[TrialRecord],
    counters: &Counters,
    target: ReplayTarget,
) -> Result<ReplayReport, RecordingError> {
    verify_flip_accounting(counters, trials)?;

    if trials.len() != recording.trials.len() {
        return Err(RecordingError::Mismatch {
            seed: u64::MAX,
            what: "trial count",
            detail: format!("recorded {}, replayed {}", recording.trials.len(), trials.len()),
        });
    }
    for (replayed, recorded) in trials.iter().zip(&recording.trials) {
        let seed = recorded.seed;
        if replayed.seed != recorded.seed {
            return Err(RecordingError::Mismatch {
                seed,
                what: "trial seed",
                detail: format!("recorded {}, replayed {}", recorded.seed, replayed.seed),
            });
        }
        if replayed.flips != recorded.flips {
            let detail = first_flip_divergence(&recorded.flips, &replayed.flips);
            return Err(RecordingError::Mismatch { seed, what: "flip transcript", detail });
        }
        if replayed.contents_hash != recorded.contents_hash {
            return Err(RecordingError::Mismatch {
                seed,
                what: "contents hash",
                detail: format!(
                    "recorded {:#018x}, replayed {:#018x}",
                    recorded.contents_hash, replayed.contents_hash
                ),
            });
        }
        if replayed.end_ns != recorded.end_ns {
            return Err(RecordingError::Mismatch {
                seed,
                what: "simulated clock",
                detail: format!("recorded {} ns, replayed {} ns", recorded.end_ns, replayed.end_ns),
            });
        }
        if replayed.outcome != recorded.outcome {
            return Err(RecordingError::Mismatch {
                seed,
                what: "attack outcome",
                detail: format!("recorded {:?}, replayed {:?}", recorded.outcome, replayed.outcome),
            });
        }
    }

    let telemetry = json::parse(&counters.to_json())?;
    if telemetry != recording.telemetry {
        return Err(RecordingError::Mismatch {
            seed: u64::MAX,
            what: "telemetry snapshot",
            detail: format!(
                "recorded {}, replayed {}",
                recording.telemetry.to_compact_string(),
                telemetry.to_compact_string()
            ),
        });
    }

    Ok(ReplayReport {
        target,
        trials: trials.len(),
        flips_verified: trials.iter().map(|t| t.flips.len() as u64).sum(),
    })
}

/// Points at the first diverging event of two flip transcripts.
fn first_flip_divergence(recorded: &[FlipEvent], replayed: &[FlipEvent]) -> String {
    for (i, (a, b)) in recorded.iter().zip(replayed).enumerate() {
        if a != b {
            return format!("event {i}: recorded {a:?}, replayed {b:?}");
        }
    }
    format!("recorded {} events, replayed {}", recorded.len(), replayed.len())
}

// --- serialization -----------------------------------------------------

fn num(what: &'static str, value: u64) -> Result<JsonValue, RecordingError> {
    if value > (1u64 << 53) {
        return Err(RecordingError::Unrepresentable { what, value });
    }
    Ok(JsonValue::Number(value as f64))
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Recording {
    /// Serializes to compact strict JSON (the golden-fixture format).
    ///
    /// # Errors
    ///
    /// [`RecordingError::Unrepresentable`] if any counter exceeds 2⁵³
    /// (the contents hash is exempt: it is stored as a hex string).
    pub fn to_json_string(&self) -> Result<String, RecordingError> {
        let spec = &self.spec;
        let params = match &spec.attack {
            RecordedAttack::Spray(a) => obj(vec![
                ("regions", num("regions", a.regions)?),
                ("file_pages", num("file_pages", a.file_pages)?),
                ("max_hammer_rows", num("max_hammer_rows", a.max_hammer_rows)?),
                ("flush_per_probe", JsonValue::Bool(a.flush_per_probe)),
            ]),
            RecordedAttack::Templating(a) => obj(vec![
                ("arena_pages", num("arena_pages", a.arena_pages)?),
                ("max_attempts", num("max_attempts", a.max_attempts as u64)?),
                ("flush_per_probe", JsonValue::Bool(a.flush_per_probe)),
            ]),
        };
        let mut seeds = Vec::with_capacity(spec.seeds.len());
        for &s in &spec.seeds {
            seeds.push(num("seed", s)?);
        }
        let spec_json = obj(vec![
            ("attack", JsonValue::String(spec.attack.kind().to_string())),
            ("params", params),
            ("memory_bytes", num("memory_bytes", spec.memory_bytes)?),
            ("row_bytes", num("row_bytes", spec.row_bytes)?),
            ("cell_period_rows", num("cell_period_rows", spec.cell_period_rows)?),
            ("ptp_bytes", num("ptp_bytes", spec.ptp_bytes)?),
            ("protected", JsonValue::Bool(spec.protected)),
            ("profile_cells", JsonValue::Bool(spec.profile_cells)),
            (
                "disturbance",
                obj(vec![
                    ("pf", JsonValue::Number(spec.disturbance.pf)),
                    ("reverse_rate", JsonValue::Number(spec.disturbance.reverse_rate)),
                    (
                        "hammer_threshold",
                        num("hammer_threshold", spec.disturbance.hammer_threshold)?,
                    ),
                    ("trc_ns", num("trc_ns", spec.disturbance.trc_ns)?),
                ]),
            ),
            ("map_gen", JsonValue::String(MAP_GEN.to_string())),
            ("seeds", JsonValue::Array(seeds)),
            ("threads", num("threads", spec.threads as u64)?),
            ("flip_log_capacity", num("flip_log_capacity", spec.flip_log_capacity as u64)?),
        ]);

        let mut trials = Vec::with_capacity(self.trials.len());
        for t in &self.trials {
            let mut flips = Vec::with_capacity(t.flips.len());
            for e in &t.flips {
                flips.push(JsonValue::Array(vec![
                    num("flip row", e.row.0)?,
                    num("flip bit", e.bit)?,
                    JsonValue::Number(match e.direction {
                        FlipDirection::OneToZero => 0.0,
                        FlipDirection::ZeroToOne => 1.0,
                    }),
                    num("flip time_ns", e.time_ns)?,
                ]));
            }
            let o = &t.outcome;
            trials.push(obj(vec![
                ("seed", num("seed", t.seed)?),
                (
                    "outcome",
                    obj(vec![
                        ("secret_read", JsonValue::Bool(o.secret_read)),
                        ("secret_overwritten", JsonValue::Bool(o.secret_overwritten)),
                        ("self_reference_found", JsonValue::Bool(o.self_reference_found)),
                        ("rows_hammered", num("rows_hammered", o.rows_hammered)?),
                        ("flips_induced", num("flips_induced", o.flips_induced)?),
                        ("mappings_created", num("mappings_created", o.mappings_created)?),
                        ("sim_time_ns", num("sim_time_ns", o.sim_time_ns)?),
                        (
                            "log",
                            JsonValue::Array(
                                o.log.iter().map(|l| JsonValue::String(l.clone())).collect(),
                            ),
                        ),
                    ]),
                ),
                ("flips", JsonValue::Array(flips)),
                ("contents_hash", JsonValue::String(format!("{:#018x}", t.contents_hash))),
                ("end_ns", num("end_ns", t.end_ns)?),
            ]));
        }

        let doc = obj(vec![
            ("version", num("version", RECORDING_VERSION)?),
            ("spec", spec_json),
            ("trials", JsonValue::Array(trials)),
            ("telemetry", self.telemetry.clone()),
        ]);
        Ok(doc.to_compact_string())
    }

    /// Parses a recording from its strict-JSON serialized form, validating
    /// the embedded telemetry snapshot against the `recording` schema
    /// declaration.
    ///
    /// # Errors
    ///
    /// [`RecordingError::Json`] when the input is not strict JSON;
    /// [`RecordingError::Malformed`] on any shape violation.
    pub fn from_json_str(input: &str) -> Result<Recording, RecordingError> {
        let doc = json::parse(input)?;
        let version = get_u64(&doc, "version", "version")?;
        if version != RECORDING_VERSION {
            return Err(malformed(
                "version",
                format!("unsupported version {version} (expected {RECORDING_VERSION})"),
            ));
        }
        let spec_json = get(&doc, "spec", "spec")?;
        let kind = get_str(spec_json, "attack", "spec.attack")?;
        let params = get(spec_json, "params", "spec.params")?;
        let attack = match kind.as_str() {
            "spray" => RecordedAttack::Spray(SprayAttack {
                regions: get_u64(params, "regions", "spec.params.regions")?,
                file_pages: match get_u64(params, "file_pages", "spec.params.file_pages")? {
                    pages @ 2.. => pages,
                    _ => {
                        return Err(malformed(
                            "spec.params.file_pages",
                            "the spray exploit needs at least two file pages",
                        ))
                    }
                },
                max_hammer_rows: get_u64(params, "max_hammer_rows", "spec.params.max_hammer_rows")?,
                flush_per_probe: get_bool(
                    params,
                    "flush_per_probe",
                    "spec.params.flush_per_probe",
                )?,
            }),
            "templating" => RecordedAttack::Templating(TemplatingAttack {
                arena_pages: get_u64(params, "arena_pages", "spec.params.arena_pages")?,
                max_attempts: get_u64(params, "max_attempts", "spec.params.max_attempts")? as usize,
                flush_per_probe: get_bool(
                    params,
                    "flush_per_probe",
                    "spec.params.flush_per_probe",
                )?,
            }),
            other => {
                return Err(malformed("spec.attack", format!("unknown attack kind `{other}`")))
            }
        };
        let disturbance_json = get(spec_json, "disturbance", "spec.disturbance")?;
        let disturbance = DisturbanceParams {
            pf: get_f64(disturbance_json, "pf", "spec.disturbance.pf")?,
            reverse_rate: get_f64(
                disturbance_json,
                "reverse_rate",
                "spec.disturbance.reverse_rate",
            )?,
            hammer_threshold: get_u64(
                disturbance_json,
                "hammer_threshold",
                "spec.disturbance.hammer_threshold",
            )?,
            trc_ns: get_u64(disturbance_json, "trc_ns", "spec.disturbance.trc_ns")?,
        };
        // Probabilities outside [0, 1] make no map: `pf` above 1 draws
        // more cells per row than a row holds, forever.
        for (value, path) in [
            (disturbance.pf, "spec.disturbance.pf"),
            (disturbance.reverse_rate, "spec.disturbance.reverse_rate"),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(malformed(path, format!("{value} is not a probability in [0, 1]")));
            }
        }
        let map_gen = get_str(spec_json, "map_gen", "spec.map_gen")?;
        if map_gen != MAP_GEN {
            return Err(malformed("spec.map_gen", format!("unknown map_gen `{map_gen}`")));
        }
        let seeds_json = get(spec_json, "seeds", "spec.seeds")?;
        let JsonValue::Array(seed_items) = seeds_json else {
            return Err(malformed("spec.seeds", "must be an array"));
        };
        let mut seeds = Vec::with_capacity(seed_items.len());
        for (i, item) in seed_items.iter().enumerate() {
            seeds.push(as_u64(item, &format!("spec.seeds[{i}]"))?);
        }
        let spec = RecordingSpec {
            attack,
            memory_bytes: get_u64(spec_json, "memory_bytes", "spec.memory_bytes")?,
            row_bytes: get_u64(spec_json, "row_bytes", "spec.row_bytes")?,
            cell_period_rows: get_u64(spec_json, "cell_period_rows", "spec.cell_period_rows")?,
            ptp_bytes: get_u64(spec_json, "ptp_bytes", "spec.ptp_bytes")?,
            protected: get_bool(spec_json, "protected", "spec.protected")?,
            // Optional for backward compatibility: version-1 fixtures
            // recorded before the key existed mean `false`.
            profile_cells: match spec_json.get("profile_cells") {
                None => false,
                Some(JsonValue::Bool(b)) => *b,
                Some(_) => return Err(malformed("spec.profile_cells", "must be a boolean")),
            },
            disturbance,
            seeds,
            threads: get_u64(spec_json, "threads", "spec.threads")? as usize,
            flip_log_capacity: get_u64(spec_json, "flip_log_capacity", "spec.flip_log_capacity")?
                as usize,
        };

        let trials_json = get(&doc, "trials", "trials")?;
        let JsonValue::Array(trial_items) = trials_json else {
            return Err(malformed("trials", "must be an array"));
        };
        let mut trials = Vec::with_capacity(trial_items.len());
        for (i, item) in trial_items.iter().enumerate() {
            trials.push(parse_trial(item, i)?);
        }

        let telemetry = get(&doc, "telemetry", "telemetry")?.clone();
        let schema_errors = schema::validate_snapshot(&telemetry);
        if let Some(first) = schema_errors.first() {
            return Err(malformed(
                format!("telemetry.{}", first.path),
                format!("{} ({} violations total)", first.message, schema_errors.len()),
            ));
        }
        Ok(Recording { spec, trials, telemetry })
    }
}

fn parse_trial(item: &JsonValue, index: usize) -> Result<TrialRecord, RecordingError> {
    let path = format!("trials[{index}]");
    let outcome_json = get(item, "outcome", &format!("{path}.outcome"))?;
    let outcome = AttackOutcome {
        secret_read: get_bool(outcome_json, "secret_read", &format!("{path}.outcome.secret_read"))?,
        secret_overwritten: get_bool(
            outcome_json,
            "secret_overwritten",
            &format!("{path}.outcome.secret_overwritten"),
        )?,
        self_reference_found: get_bool(
            outcome_json,
            "self_reference_found",
            &format!("{path}.outcome.self_reference_found"),
        )?,
        rows_hammered: get_u64(outcome_json, "rows_hammered", &format!("{path}.outcome.rows"))?,
        flips_induced: get_u64(outcome_json, "flips_induced", &format!("{path}.outcome.flips"))?,
        mappings_created: get_u64(
            outcome_json,
            "mappings_created",
            &format!("{path}.outcome.mappings"),
        )?,
        sim_time_ns: get_u64(outcome_json, "sim_time_ns", &format!("{path}.outcome.sim_time_ns"))?,
        log: {
            let log_json = get(outcome_json, "log", &format!("{path}.outcome.log"))?;
            let JsonValue::Array(lines) = log_json else {
                return Err(malformed(format!("{path}.outcome.log"), "must be an array"));
            };
            let mut log = Vec::with_capacity(lines.len());
            for (j, line) in lines.iter().enumerate() {
                let JsonValue::String(s) = line else {
                    return Err(malformed(format!("{path}.outcome.log[{j}]"), "must be a string"));
                };
                log.push(s.clone());
            }
            log
        },
    };

    let flips_json = get(item, "flips", &format!("{path}.flips"))?;
    let JsonValue::Array(flip_items) = flips_json else {
        return Err(malformed(format!("{path}.flips"), "must be an array"));
    };
    let mut flips = Vec::with_capacity(flip_items.len());
    for (j, flip) in flip_items.iter().enumerate() {
        let fp = format!("{path}.flips[{j}]");
        let JsonValue::Array(fields) = flip else {
            return Err(malformed(fp, "must be a [row, bit, direction, time_ns] array"));
        };
        if fields.len() != 4 {
            return Err(malformed(fp, "must have exactly 4 elements"));
        }
        let direction = match as_u64(&fields[2], &format!("{fp}[2]"))? {
            0 => FlipDirection::OneToZero,
            1 => FlipDirection::ZeroToOne,
            other => {
                return Err(malformed(
                    format!("{fp}[2]"),
                    format!("direction must be 0 or 1, got {other}"),
                ))
            }
        };
        flips.push(FlipEvent {
            row: RowId(as_u64(&fields[0], &format!("{fp}[0]"))?),
            bit: as_u64(&fields[1], &format!("{fp}[1]"))?,
            direction,
            time_ns: as_u64(&fields[3], &format!("{fp}[3]"))?,
        });
    }

    let hash_str = get_str(item, "contents_hash", &format!("{path}.contents_hash"))?;
    let contents_hash = parse_hex_u64(&hash_str).ok_or_else(|| {
        malformed(format!("{path}.contents_hash"), "must be an 0x-prefixed hex u64")
    })?;

    Ok(TrialRecord {
        seed: get_u64(item, "seed", &format!("{path}.seed"))?,
        outcome,
        flips,
        contents_hash,
        end_ns: get_u64(item, "end_ns", &format!("{path}.end_ns"))?,
    })
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    let digits = s.strip_prefix("0x")?;
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

fn malformed(path: impl Into<String>, message: impl Into<String>) -> RecordingError {
    RecordingError::Malformed { path: path.into(), message: message.into() }
}

fn get<'a>(doc: &'a JsonValue, key: &str, path: &str) -> Result<&'a JsonValue, RecordingError> {
    doc.get(key).ok_or_else(|| malformed(path, "missing"))
}

fn get_u64(doc: &JsonValue, key: &str, path: &str) -> Result<u64, RecordingError> {
    as_u64(get(doc, key, path)?, path)
}

fn as_u64(v: &JsonValue, path: &str) -> Result<u64, RecordingError> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64 => Ok(n as u64),
        _ => Err(malformed(path, "must be a non-negative integral number")),
    }
}

fn get_f64(doc: &JsonValue, key: &str, path: &str) -> Result<f64, RecordingError> {
    get(doc, key, path)?.as_f64().ok_or_else(|| malformed(path, "must be a number"))
}

fn get_bool(doc: &JsonValue, key: &str, path: &str) -> Result<bool, RecordingError> {
    match get(doc, key, path)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(malformed(path, "must be a boolean")),
    }
}

fn get_str(doc: &JsonValue, key: &str, path: &str) -> Result<String, RecordingError> {
    match get(doc, key, path)? {
        JsonValue::String(s) => Ok(s.clone()),
        _ => Err(malformed(path, "must be a string")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 vectors. Every input is shorter than one
        // word, so the wordwise hash folds it byte-at-a-time.
        assert_eq!(fnv1a64_wordwise(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64_wordwise(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64_wordwise(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn hex_round_trip() {
        for v in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let s = format!("{v:#018x}");
            assert_eq!(parse_hex_u64(&s), Some(v), "{s}");
        }
        assert_eq!(parse_hex_u64("0x"), None);
        assert_eq!(parse_hex_u64("ff"), None);
        assert_eq!(parse_hex_u64("0x00000000000000000"), None, "17 digits");
    }

    #[test]
    fn unrepresentable_counters_are_rejected_at_serialize_time() {
        assert!(num("x", 1 << 53).is_ok());
        assert!(matches!(
            num("x", (1 << 53) + 1),
            Err(RecordingError::Unrepresentable { what: "x", .. })
        ));
    }

    #[test]
    fn repeat_journaled_spray_trials_allocate_no_row_buffer() {
        // The spray-pool benchmark's machine: a profiled 16 MiB CTA parent.
        let mut spec = RecordingSpec::new(RecordedAttack::Spray(SprayAttack::default()), vec![11]);
        spec.memory_bytes = 16 << 20;
        spec.protected = true;
        spec.profile_cells = true;
        spec.flip_log_capacity = 1 << 16;
        let boot = || spec.builder(11, ReplayTarget::default()).build();
        let mut pool = cta_vm::KernelPool::new(1);
        let mut trial = || {
            let run = |k: &mut Kernel| run_trial_on(k, &spec, 11).expect("trial runs").0;
            pool.run_journaled(&(), boot, run).expect("parent boots")
        };
        let first = trial();
        assert!(!first.flips.is_empty(), "the spray lands flips");
        let allocated = cta_dram::row_buffers_allocated();
        for _ in 0..2 {
            assert_eq!(trial(), first);
        }
        assert_eq!(cta_dram::row_buffers_allocated(), allocated);
    }

    #[test]
    fn error_display_names_the_failure() {
        let e = RecordingError::LossyFlipLog { seed: 7, dropped: 12, retained: 4 };
        let msg = e.to_string();
        assert!(msg.contains("seed=7") && msg.contains("12"), "{msg}");
        assert!(RecordingError::RetentionDisabled.to_string().contains("flip_log_capacity"));
    }
}
