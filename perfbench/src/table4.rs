//! The table4 workload: every Table 4 spec on a stock and a CTA machine
//! through `Runner::compare_many`, pass after pass.

use std::time::{Duration, Instant};

use cta_attack::recording::RECORDING_LABEL;
use cta_telemetry::Counters;
use cta_workloads::OverheadRow;

use crate::campaign::trace_metrics;
use crate::clock::StealClock;
use crate::digest::Digest;
use crate::layers;
use crate::plan::{Table4Plan, Workload, DEFAULT_SEED, TABLE4_THREADS};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::SETUP_REPS;

/// Cells replayed under spans after each traced pass.
const REPLAYED_CELLS_PER_PASS: usize = 2;

/// Digest of one pass: the bits of every simulated time.
pub fn pass_digest(rows: &[OverheadRow]) -> u64 {
    let mut d = Digest::default();
    for row in rows {
        d.word(row.baseline_sim_ns.to_bits());
        d.word(row.cta_sim_ns.to_bits());
    }
    d.value()
}

/// One full pass over every cell.
pub fn pass(plan: &Table4Plan) -> Result<Vec<OverheadRow>, String> {
    plan.runner
        .compare_many(|protected| plan.machine(protected), &plan.specs, TABLE4_THREADS)
        .map_err(|e| e.to_string())
}

#[derive(Default)]
struct Tally {
    passes: u64,
    cells: u64,
    failed: u64,
    accesses: u64,
    // Each completed pass's start and end, and its cells' wall times.
    pass_at: Vec<(Instant, Instant, Vec<f64>)>,
    digest: Option<u64>,
    problems: Vec<String>,
}

impl Tally {
    fn absorb(
        &mut self,
        plan: &Table4Plan,
        rows: Result<Vec<OverheadRow>, String>,
        start: Instant,
        end: Instant,
    ) {
        let cells = 2 * plan.specs.len() as u64;
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                self.failed += cells;
                self.problems.push(format!("pass failed: {e}"));
                return;
            }
        };
        self.passes += 1;
        self.cells += cells;
        self.accesses += plan.accesses_per_pass();
        let cell_ms = rows.iter().flat_map(|r| [r.baseline_wall_ns / 1e6, r.cta_wall_ns / 1e6]);
        self.pass_at.push((start, end, cell_ms.collect()));
        let d = pass_digest(&rows);
        if *self.digest.get_or_insert(d) != d {
            self.problems.push("a pass's simulated times differ from the first pass".to_string());
        }
    }
}

/// Replays cells serially under spans: boot, run, counters.
struct Replayer {
    tracer: Tracer,
    counters: Counters,
    // Cells replayed so far; the next one replayed is cell `cells`.
    cells: usize,
    body_ms: Vec<f64>,
    problems: Vec<String>,
}

impl Replayer {
    fn replay(&mut self, plan: &Table4Plan, rows: &[OverheadRow]) {
        for _ in 0..REPLAYED_CELLS_PER_PASS {
            let cell = self.cells;
            self.cells += 1;
            let (spec, protected) = (&plan.specs[(cell / 2) % plan.specs.len()], cell % 2 == 1);
            let op = cell as u64;
            let root = self.tracer.enter("cell", op);
            let mut kernel = self.tracer.time("core.boot", op, || plan.machine(protected));
            let measured =
                self.tracer.time("workloads.run", op, || plan.runner.run(&mut kernel, spec));
            let counters = &mut self.counters;
            self.tracer.time("telemetry.record", op, || {
                let mut shard = Counters::new(RECORDING_LABEL);
                kernel.record_counters(&mut shard);
                counters.merge(&shard);
            });
            self.tracer.exit(root);
            let span = &self.tracer.spans()[root];
            self.body_ms.push((span.end_ns - span.start_ns) as f64 / 1e6);
            let row = rows.iter().find(|r| r.name == spec.name).expect("every spec has a row");
            let expected = if protected { row.cta_sim_ns } else { row.baseline_sim_ns };
            match measured {
                Ok(m) if m.sim_ns as f64 == expected => {}
                Ok(m) => self.problems.push(format!(
                    "replayed {} (protected={protected}): sim_ns {} vs {expected}",
                    spec.name, m.sim_ns
                )),
                Err(e) => self.problems.push(format!("replayed {}: {e}", spec.name)),
            }
        }
    }
}

/// Runs the table4 workload and reports its metrics, plus the spans of a
/// traced run.
pub fn run(seed: u64, seconds: u64, trace: bool) -> (Report, Option<Tracer>) {
    let clock = StealClock::start();
    let plan = Table4Plan::new(seed);
    let mut problems = Vec::new();

    // Set-up: building the plan plus one warm-up pass.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        if let Err(e) = pass(&Table4Plan::new(seed)) {
            problems.push(format!("warm-up pass failed: {e}"));
        }
        setups.push((start, Instant::now()));
    }

    let timed = |window: Duration, mut replayer: Option<&mut Replayer>| {
        let mut tally = Tally::default();
        let start = Instant::now();
        while start.elapsed() < window {
            let pass_start = Instant::now();
            let rows = pass(&plan);
            let pass_end = Instant::now();
            if let (Some(r), Ok(rows)) = (replayer.as_deref_mut(), &rows) {
                r.replay(&plan, rows);
            }
            tally.absorb(&plan, rows, pass_start, pass_end);
        }
        (tally, start, Instant::now())
    };
    let window = Duration::from_secs(seconds);
    let mut replayer = Replayer {
        tracer: Tracer::default(),
        counters: Counters::new(RECORDING_LABEL),
        cells: 0,
        body_ms: Vec::new(),
        problems: Vec::new(),
    };
    let (untraced, traced) = if trace {
        let untraced = timed(window / 2, None);
        (untraced, Some(timed(window / 2, Some(&mut replayer))))
    } else {
        (timed(window, None), None)
    };
    let peak_rss = peak_rss_mb();
    let timeline = clock.finish();

    let mut tallies = vec![&untraced.0];
    tallies.extend(traced.as_ref().map(|(t, _, _)| t));
    let mut digest = None;
    let (mut attempted, mut failed, mut passes) = (0, 0, 0);
    for t in &tallies {
        attempted += t.cells + t.failed;
        failed += t.failed;
        passes += t.passes;
        problems.extend(t.problems.iter().cloned());
        if let Some(d) = t.digest {
            if *digest.get_or_insert(d) != d {
                problems.push("simulated times differ between phases".to_string());
            }
        }
    }
    match digest {
        Some(d) => {
            eprintln!("perfbench: table4 output digest {d:#018x}");
            let stored = Workload::Table4.stored_digest();
            if seed == DEFAULT_SEED && d != stored {
                problems.push(format!("digest {d:#018x} differs from the stored {stored:#018x}"));
            }
        }
        None => problems.push("no pass completed".to_string()),
    }

    let mut report = Report { attempted, ..Report::default() };
    if let Some((traced, start, end)) = &traced {
        problems.extend(replayer.problems.iter().cloned());
        let per_op = replayer.tracer.per_op_ms();
        layers::span_metrics(&mut report, &per_op);
        let boots = 2 * plan.specs.len() as u64 * passes + replayer.cells as u64;
        report.metric("core.boots", boots as f64, "count");
        layers::counter_metrics(&mut report, &replayer.counters, replayer.cells as u64);
        for machine in ["stock", "cta", "softtrr", "blockhammer"] {
            report.metric(format!("attack.exploit_ratio.{machine}"), 0.0, "ratio");
        }
        for (name, unit) in [
            ("executor.wait_ms", "ms"),
            ("executor.steals_per_trial", "ratio"),
            ("executor.pool_hit_ratio", "ratio"),
            ("executor.evictions", "count"),
            ("executor.pool_model_cache_mb", "MB"),
        ] {
            report.metric(name, 0.0, unit);
        }
        trace_metrics(&mut report, &replayer.tracer, &replayer.body_ms);
        let untraced_rate = untraced.0.accesses as f64 / timeline.between(untraced.1, untraced.2);
        let traced_rate = traced.accesses as f64 / timeline.between(*start, *end);
        report.metric("trace.overhead_pct", (1.0 - traced_rate / untraced_rate) * 100.0, "%");
    } else {
        let passes = &untraced.0.pass_at;
        // The median pass: robust to one slow pass.
        let per_pass = |work: u64| {
            let rates: Vec<f64> =
                passes.iter().map(|&(a, b, _)| work as f64 / timeline.between(a, b)).collect();
            median(&rates).unwrap_or(0.0)
        };
        report.metric("trials_per_s", per_pass(2 * plan.specs.len() as u64), "1/s");
        // Cells run inside `compare_many`, so a pass's stolen time is
        // spread over its cells in proportion to their wall time.
        let latencies_ms: Vec<f64> = passes
            .iter()
            .flat_map(|(a, b, cells)| {
                let run_share = timeline.between(*a, *b) / b.duration_since(*a).as_secs_f64();
                cells.iter().map(move |ms| ms * run_share)
            })
            .collect();
        for (name, p) in [("trial_p50_ms", 50), ("trial_p90_ms", 90)] {
            let value = percentile(&latencies_ms, p).unwrap_or_else(|| {
                problems.push(format!("{name}: too few cells ({})", latencies_ms.len()));
                0.0
            });
            report.metric(name, value, "ms");
        }
        report.metric("sim_accesses_per_s", per_pass(plan.accesses_per_pass()), "1/s");
        let setup_s: Vec<f64> = setups.iter().map(|&(a, b)| timeline.between(a, b)).collect();
        report.metric("setup_s", median(&setup_s).expect("set-up ran"), "s");
        report.metric("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB");
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    report.correct = problems.is_empty() && failed == 0;
    report.failed = if report.correct { 0 } else { attempted.max(failed) };
    (report, trace.then_some(replayer.tracer))
}
