//! `replay-check` — golden-recording replay gate.
//!
//! Loads every `*.recording.json` under the recordings directory
//! (`fixtures/recordings/` by default, `$CTA_RECORDINGS_DIR` override) and
//! replays each through the scoped serial path, asserting byte-identical
//! flip transcripts, DRAM contents hashes, simulated clocks, attack
//! outcomes, and telemetry snapshots. Any simulation regression — in the
//! DRAM model, the flip engine, the row store, the kernel, or the attacks
//! — fails this gate with the first diverging observable instead of
//! silently changing every experiment.
//!
//! Usage:
//!
//! ```text
//! replay-check                     # replay all fixtures
//! replay-check --executor         # replay through the campaign executor too
//! replay-check --isolation MODE   # restrict executor replays to fork|journal
//! replay-check --record           # regenerate the fixtures from the specs
//! replay-check FILE ...           # replay specific recording files
//! ```
//!
//! `--executor` additionally replays every fixture *through the
//! persistent [`CampaignExecutor`]* at 1 and 3 workers **and under both
//! trial-isolation modes** (fork-per-trial and journaled in-place
//! rollback): same goldens, same byte-for-byte comparison, but served
//! boot-once over work-stealing deques. A pass proves the executor's
//! scheduling (worker count, steal interleaving, pool reuse) *and* its
//! isolation mechanism are invisible in the output, exactly as the scoped
//! serial path promises. `--isolation fork|journal` narrows the executor
//! grid to one mode (it implies `--executor`).
//!
//! `--record` exists for intentional simulation changes: regenerate,
//! eyeball the diff, and commit the new goldens alongside the change that
//! explains them.

use std::path::PathBuf;
use std::process::ExitCode;

use cta_attack::{
    record_campaign, replay_recording, CampaignExecutor, ExecutorConfig, RecordedAttack, Recording,
    RecordingSpec, ReplayTarget, SprayAttack, TemplatingAttack, TrialIsolation,
};

/// The golden campaign set: deliberately tiny machines and narrow attacks
/// so the replay grid stays a fast tier-1 gate, while still
/// exercising both attack families, both trial outcomes (spray induces
/// flips and escalates on some seeds; templating gives up on others), and
/// a multi-trial merged telemetry snapshot.
fn golden_specs() -> Vec<(&'static str, RecordingSpec)> {
    let spray =
        SprayAttack { regions: 8, file_pages: 2, max_hammer_rows: 4, flush_per_probe: false };
    let templating = TemplatingAttack { arena_pages: 96, max_attempts: 4, flush_per_probe: false };
    vec![
        ("spray-small", RecordingSpec::new(RecordedAttack::Spray(spray), vec![0, 1])),
        ("templating-small", RecordingSpec::new(RecordedAttack::Templating(templating), vec![3])),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    cta_bench::recordings_dir().join(format!("{name}.recording.json"))
}

/// Regenerates every golden fixture from its spec.
fn record_goldens() -> ExitCode {
    let dir = cta_bench::recordings_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("replay-check: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, spec) in golden_specs() {
        let recording = match record_campaign(&spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay-check: FAIL recording {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let json = match recording.to_json_string() {
            Ok(j) => j,
            Err(e) => {
                eprintln!("replay-check: FAIL serializing {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = fixture_path(name);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("replay-check: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let flips: u64 = recording.trials.iter().map(|t| t.flips.len() as u64).sum();
        println!(
            "replay-check: recorded {} ({} trials, {flips} flips)",
            path.display(),
            recording.trials.len()
        );
    }
    ExitCode::SUCCESS
}

/// Every `*.recording.json` under the recordings directory, sorted.
fn default_fixtures() -> Vec<PathBuf> {
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(cta_bench::recordings_dir())
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".recording.json")))
        .collect();
    fixtures.sort();
    fixtures
}

/// Worker counts the `--executor` mode replays under: the degenerate
/// single-worker queue and an oversubscribed pool (more workers than this
/// gate has campaigns per queue), so both "no stealing possible" and
/// "stealing likely" schedules are pinned to the same bytes.
const EXECUTOR_WORKERS: [usize; 2] = [1, 3];

/// Isolation modes the executor grid covers unless `--isolation` narrows
/// it: the fork path and the journaled in-place rollback path must both
/// reproduce the goldens byte-for-byte.
const EXECUTOR_ISOLATIONS: [TrialIsolation; 2] = [TrialIsolation::Fork, TrialIsolation::Journal];

fn replay_fixtures(
    files: &[PathBuf],
    executor: bool,
    isolation: Option<TrialIsolation>,
) -> ExitCode {
    if files.is_empty() {
        eprintln!(
            "replay-check: no recordings under {} (run `replay-check --record` to create them)",
            cta_bench::recordings_dir().display()
        );
        return ExitCode::FAILURE;
    }
    let mut failures = 0u32;
    for path in files {
        let recording = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Recording::from_json_str(&text).map_err(|e| e.to_string()))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay-check: FAIL {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        match replay_recording(&recording, ReplayTarget::default()) {
            Ok(report) => {
                println!(
                    "replay-check: ok   {} scoped, {} trials, {} flips",
                    path.display(),
                    report.trials,
                    report.flips_verified
                );
            }
            Err(e) => {
                eprintln!("replay-check: FAIL {} scoped: {e}", path.display());
                failures += 1;
            }
        }
        if !executor {
            continue;
        }
        for workers in EXECUTOR_WORKERS {
            for mode in EXECUTOR_ISOLATIONS {
                if isolation.is_some_and(|only| only != mode) {
                    continue;
                }
                let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
                match exec.replay_isolated(&recording, ReplayTarget::default(), mode) {
                    Ok(report) => {
                        println!(
                            "replay-check: ok   {} executor w={workers} iso={}, {} trials, {} flips",
                            path.display(),
                            mode.name(),
                            report.trials,
                            report.flips_verified
                        );
                    }
                    Err(e) => {
                        eprintln!(
                            "replay-check: FAIL {} executor w={workers} iso={}: {e}",
                            path.display(),
                            mode.name()
                        );
                        failures += 1;
                    }
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("replay-check: {failures} replay failures");
        return ExitCode::FAILURE;
    }
    let how = if executor { "scoped and through the executor" } else { "scoped" };
    println!("replay-check: {} recordings replayed {how}", files.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut record = false;
    let mut executor = false;
    let mut isolation: Option<TrialIsolation> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--record" => record = true,
            "--executor" => executor = true,
            "--isolation" => {
                let Some(mode) = args.next() else {
                    eprintln!("replay-check: --isolation requires fork or journal");
                    return ExitCode::FAILURE;
                };
                match mode.parse() {
                    Ok(mode) => {
                        isolation = Some(mode);
                        executor = true; // isolation is an executor dimension
                    }
                    Err(e) => {
                        eprintln!("replay-check: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if record {
        return record_goldens();
    }
    let files = if files.is_empty() { default_fixtures() } else { files };
    replay_fixtures(&files, executor, isolation)
}
