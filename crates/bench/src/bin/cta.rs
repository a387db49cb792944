//! `cta` — the front-end CLI for the monotonic-CTA simulator.
//!
//! Three subcommands, from inspection to sustained service:
//!
//! * `cta profile` — boot one machine with the boot-time cell profiler
//!   and report what it found (cell-type split, model cache footprint,
//!   boot wall time);
//! * `cta attack` — run one attack trial end to end and report the
//!   outcome phase by phase;
//! * `cta evaluate` — drive the persistent campaign executor: a
//!   multi-tenant queue of campaigns served boot-once/journal-per-trial,
//!   with per-campaign JSON-lines telemetry and sustained-rate stats.
//!
//! ```text
//! cta profile  [--seed N] [--memory-mb N] [--stock]
//! cta attack   [--seed N] [--attack spray|templating] [--stock]
//! cta evaluate [--tenants N] [--campaigns N] [--trials N] [--workers N]
//!              [--seed N] [--attack spray|templating] [--stock]
//!              [--jsonl PATH]
//! ```
//!
//! Machines default to the paper's protected (CTA) configuration with
//! boot-time cell profiling; `--stock` drops protection. `cta evaluate --jsonl` streams one strict-JSON
//! line per completed campaign (the `json-check --schema` gate validates
//! the stream's shape). `attack` and `evaluate` run every trial in place
//! on a pooled parent kernel under an undo journal, rolled back after the
//! trial.

use std::process::ExitCode;
use std::time::Instant;

use cta_attack::{
    CampaignExecutor, CampaignRequest, ExecutorConfig, RecordedAttack, RecordingSpec, ReplayTarget,
    SprayAttack, TemplatingAttack,
};
use cta_bench::{emit_telemetry, header, kv};
use cta_telemetry::Counters;

const USAGE: &str = "usage: cta <profile|evaluate|attack> [options]
  profile   [--seed N] [--memory-mb N] [--stock]
  attack    [--seed N] [--attack spray|templating] [--stock]
  evaluate  [--tenants N] [--campaigns N] [--trials N] [--workers N]
            [--seed N] [--attack spray|templating] [--stock] [--jsonl PATH]";

struct Options {
    seed: u64,
    memory_mb: u64,
    protected: bool,
    attack: String,
    tenants: usize,
    campaigns: usize,
    trials: usize,
    workers: usize,
    jsonl: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 11,
            memory_mb: 8,
            protected: true,
            attack: "spray".to_string(),
            tenants: 2,
            campaigns: 2,
            trials: 4,
            workers: 2,
            jsonl: None,
        }
    }
}

fn parse_options(args: &mut std::env::Args) -> Result<Options, String> {
    let mut opts = Options::default();
    let need = |args: &mut std::env::Args, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = parse_num(&need(args, "--seed")?)?,
            "--memory-mb" => opts.memory_mb = parse_num(&need(args, "--memory-mb")?)?,
            "--stock" => opts.protected = false,
            "--attack" => opts.attack = need(args, "--attack")?,
            "--tenants" => opts.tenants = parse_num(&need(args, "--tenants")?)? as usize,
            "--campaigns" => opts.campaigns = parse_num(&need(args, "--campaigns")?)? as usize,
            "--trials" => opts.trials = parse_num(&need(args, "--trials")?)? as usize,
            "--workers" => opts.workers = parse_num(&need(args, "--workers")?)? as usize,
            "--jsonl" => opts.jsonl = Some(need(args, "--jsonl")?.into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.attack != "spray" && opts.attack != "templating" {
        return Err(format!("unknown attack {:?} (spray|templating)", opts.attack));
    }
    for (flag, count) in
        [("--tenants", opts.tenants), ("--campaigns", opts.campaigns), ("--trials", opts.trials)]
    {
        if count == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    Ok(opts)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// The spec every subcommand shares: the standard small experiment
/// machine, profiled at boot.
fn spec(opts: &Options) -> RecordingSpec {
    let attack = if opts.attack == "spray" {
        RecordedAttack::Spray(SprayAttack {
            regions: 8,
            file_pages: 2,
            max_hammer_rows: 4,
            flush_per_probe: false,
        })
    } else {
        RecordedAttack::Templating(TemplatingAttack {
            arena_pages: 96,
            max_attempts: 4,
            flush_per_probe: false,
        })
    };
    let mut spec = RecordingSpec::new(attack, Vec::new());
    spec.memory_bytes = opts.memory_mb << 20;
    spec.protected = opts.protected;
    spec.profile_cells = true;
    // Templating trials can land ~100k flips; transcripts must stay
    // lossless or the campaign is rejected.
    spec.flip_log_capacity = 1 << 17;
    spec
}

fn cmd_profile(opts: &Options) -> ExitCode {
    header(&format!(
        "cta profile — seed {} / {} MiB / {}",
        opts.seed,
        opts.memory_mb,
        if opts.protected { "cta" } else { "stock" }
    ));
    let start = Instant::now();
    let kernel = match spec(opts).builder(opts.seed, ReplayTarget::default()).build() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("cta profile: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let boot_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut tel = Counters::new("cta-profile");
    kernel.record_counters(&mut tel);
    kv("boot_ms", format!("{boot_ms:.1}"));
    kv("rows", kernel.dram().geometry().total_rows());
    kv("row_bytes", kernel.dram().geometry().row_bytes());
    kv("rows_materialized", kernel.dram().rows_materialized());
    kv("model_cache_bytes", kernel.dram().model_cache_bytes());
    if let Some(g) = tel.group("dram") {
        for (key, value) in g.iter() {
            let rendered = match value {
                cta_telemetry::Value::UInt(v) => v.to_string(),
                cta_telemetry::Value::Float(v) => format!("{v:.3}"),
                cta_telemetry::Value::Bool(v) => v.to_string(),
                cta_telemetry::Value::Text(v) => v.clone(),
            };
            kv(&format!("dram.{key}"), rendered);
        }
    }
    emit_telemetry(&tel);
    ExitCode::SUCCESS
}

fn cmd_attack(opts: &Options) -> ExitCode {
    header(&format!(
        "cta attack — {} / seed {} / {}",
        opts.attack,
        opts.seed,
        if opts.protected { "cta" } else { "stock" }
    ));
    let mut spec = spec(opts);
    spec.seeds = vec![opts.seed];
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 1 });
    let output = match exec.run(CampaignRequest::new("cli", spec)) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("cta attack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trial = &output.trials[0];
    kv("succeeded", trial.outcome.success());
    kv("flips", trial.flips.len());
    kv("contents_hash", format!("{:016x}", trial.contents_hash));
    kv("sim_time_ns", trial.end_ns);
    for phase in &trial.outcome.log {
        kv("phase", phase);
    }
    let mut tel = Counters::new("cta-attack");
    tel.merge(&output.counters);
    emit_telemetry(&tel);
    ExitCode::SUCCESS
}

fn cmd_evaluate(opts: &Options) -> ExitCode {
    header(&format!(
        "cta evaluate — {} tenants x {} campaigns x {} trials, {} workers",
        opts.tenants, opts.campaigns, opts.trials, opts.workers
    ));
    let exec =
        CampaignExecutor::new(ExecutorConfig { workers: opts.workers, parents_per_worker: 2 });
    if let Some(path) = &opts.jsonl {
        match std::fs::File::create(path) {
            Ok(sink) => exec.set_jsonl_sink(sink),
            Err(e) => {
                eprintln!("cta evaluate: cannot create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // The full queue up front: every tenant's campaigns interleaved, so
    // the pool serves a saturating multi-tenant mix rather than one
    // tenant draining at a time.
    let start = Instant::now();
    let mut tickets = Vec::new();
    for round in 0..opts.campaigns {
        for tenant_idx in 0..opts.tenants {
            let tenant = format!("tenant{tenant_idx}");
            let mut spec = spec(opts);
            // `--trials` sizes the seed list: reserve it fallibly, so a
            // count too large for memory is a usage error, not an abort.
            let mut seeds = Vec::new();
            if seeds.try_reserve_exact(opts.trials).is_err() {
                eprintln!("cta: --trials {} is too many to hold in memory\n{USAGE}", opts.trials);
                return ExitCode::FAILURE;
            }
            seeds.resize(opts.trials, opts.seed + tenant_idx as u64);
            spec.seeds = seeds;
            match exec.submit(CampaignRequest::new(tenant, spec)) {
                Ok(ticket) => tickets.push((round, tenant_idx, ticket)),
                Err(e) => {
                    eprintln!("cta evaluate: submit failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut latencies_ns = Vec::new();
    for (round, tenant_idx, ticket) in tickets {
        match ticket.wait() {
            Ok(output) => {
                latencies_ns.extend_from_slice(&output.trial_latencies_ns);
                println!(
                    "  campaign {:>3}  tenant{tenant_idx} round {round}: {}/{} trials succeeded, {} flips",
                    output.campaign,
                    output.summary.successes,
                    output.summary.trials,
                    output.summary.total_flips
                );
            }
            Err(e) => {
                eprintln!("cta evaluate: campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    latencies_ns.sort_unstable();
    let pct = |p: usize| {
        let rank = (latencies_ns.len() * p).div_ceil(100).max(1);
        latencies_ns[rank.min(latencies_ns.len()) - 1] as f64 / 1e6
    };
    let stats = exec.stats();
    kv("trials", stats.trials_completed);
    kv("trials_per_sec", format!("{:.1}", stats.trials_completed as f64 / wall_s));
    kv("p50_trial_latency_ms", format!("{:.1}", pct(50)));
    kv("p99_trial_latency_ms", format!("{:.1}", pct(99)));
    kv("parent_boots", stats.parent_boots);
    kv("pool_hits", stats.pool_hits);
    kv("steals", stats.steals);
    kv("pool_parents", stats.pool_parents);
    kv("pool_model_cache_bytes", stats.pool_model_cache_bytes);
    kv("pool_row_store_bytes", stats.pool_row_store_bytes);
    if let Some(path) = &opts.jsonl {
        kv("events", path.display());
    }
    let mut tel = Counters::new("cta-evaluate");
    exec.record_counters(&mut tel);
    emit_telemetry(&tel);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(&mut args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("cta: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "profile" => cmd_profile(&opts),
        "attack" => cmd_attack(&opts),
        "evaluate" => cmd_evaluate(&opts),
        other => {
            eprintln!("cta: unknown subcommand {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
