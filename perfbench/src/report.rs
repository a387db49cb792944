//! The result line and the environment header printed before it.

use std::fmt::Write as _;

use crate::plan::{Workload, OUTSTANDING, TABLE4_THREADS, WORKERS};

/// One run's verdict and metrics, printed as the last line of stdout.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations (trials or Table 4 cells) attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed; all of them when an output check failed.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The result as one JSON object. Values keep every digit Rust's
    /// shortest round-trip formatting gives them.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is a bug the
            // output checks already reported.
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// What a run needs to be reproduced and compared.
pub fn env_header(workload: Workload, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"workers\": {WORKERS}, \"outstanding_campaigns\": {OUTSTANDING}, \
         \"table4_threads\": {TABLE4_THREADS}, \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}",
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        u8::from(trace)
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
