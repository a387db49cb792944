//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an environment header line, then the result as one JSON object
//! on the last line of stdout. Exits non-zero on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use cta_perfbench::plan::{Workload, DEFAULT_SEED};
use cta_perfbench::report::env_header;
use cta_perfbench::{campaign, table4};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args =
        Args { workload: Workload::SprayPool, seed: DEFAULT_SEED, seconds: 10, trace: false };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <spray-pool|module-sweep|table4> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let header = env_header(args.workload, args.seed, args.seconds, args.trace);
    println!("env {header}");
    let (report, tracer) = match args.workload {
        Workload::Table4 => table4::run(args.seed, args.seconds, args.trace),
        w => campaign::run(w, args.seed, args.seconds, args.trace),
    };
    if let Some(tracer) = tracer {
        // Spans go next to the build, inside the checkout.
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let path = dir.join(format!("perfbench-trace-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => {
                eprintln!("perfbench: {} spans written to {}", tracer.spans().len(), path.display())
            }
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
