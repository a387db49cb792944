//! Regenerates Table 4: per-benchmark overhead of CTA on two machine
//! shapes (the paper's 8 GiB and 128 GiB hosts, scaled to simulator size
//! while preserving the `ZONE_PTP`:memory ratio).
//!
//! Benchmark×repetition cells run through [`Runner::compare_many`]: each
//! worker thread boots one stock and one CTA parent per machine shape and
//! runs every cell on them under an undo journal, rolled back after the
//! cell. Simulated results are bit-identical to booting a fresh machine
//! per cell, at any `--threads` (`--threads 1` runs the cells serially on
//! the calling thread). Wall-clock deltas are host measurements and remain
//! noisy either way.

use cta_bench::{emit_telemetry, header, kv};
use cta_core::SystemBuilder;
use cta_telemetry::Counters;
use cta_vm::Kernel;
use cta_workloads::{phoronix, record_overhead_rows, spec2006, Runner, Suite, WorkloadSpec};

fn machine(total: u64, ptp: u64, protected: bool) -> Kernel {
    SystemBuilder::new(total)
        .ptp_bytes(ptp)
        .seed(0x7AB1E4)
        .protected(protected)
        .build()
        .expect("machine boots")
}

fn run_suite(title: &str, total: u64, ptp: u64, threads: usize, tel: &mut Counters, group: &str) {
    header(title);
    println!("{:<20} {:>14} {:>14}", "Benchmark", "sim-time Δ%", "wall-clock Δ%");
    let runner = Runner { repetitions: 2, seed: 0x1234 };
    let specs: Vec<WorkloadSpec> = spec2006().iter().chain(phoronix().iter()).cloned().collect();
    let rows = runner
        .compare_many(|protected| machine(total, ptp, protected), &specs, threads)
        .expect("workloads run");
    record_overhead_rows(tel, group, &rows);
    let mut sums: std::collections::HashMap<Suite, (f64, f64, u32)> =
        std::collections::HashMap::new();
    for (spec, row) in specs.iter().zip(&rows) {
        println!(
            "{:<20} {:>13.2}% {:>13.2}%",
            spec.name,
            row.delta_percent(),
            row.wall_delta_percent()
        );
        let e = sums.entry(spec.suite).or_insert((0.0, 0.0, 0));
        e.0 += row.delta_percent();
        e.1 += row.wall_delta_percent();
        e.2 += 1;
    }
    for (suite, (sim, wall, n)) in sums {
        kv(
            &format!("{suite} mean Δ (paper: ±0.1%)"),
            format!("sim {:+.3}% / wall {:+.3}%", sim / n as f64, wall / n as f64),
        );
    }
}

/// Runs one representative workload on a fresh stock small-host machine
/// and reports how effective the MMU caches were: the TLB and PSC hit
/// rates, emitted as sanitized f64 gauges (`tlb`/`psc` `hit_rate`) so the
/// overhead numbers above can be read next to the cache behavior that
/// produced them.
fn report_cache_rates(tel: &mut Counters) {
    header("MMU cache effectiveness (representative workload: first SPEC entry)");
    let mut k = machine(16 << 20, 1 << 20, false);
    let spec = &spec2006()[0];
    Runner { repetitions: 1, seed: 0x1234 }.run(&mut k, spec).expect("workload runs");
    k.record_rate_gauges(tel);
    kv("tlb hit rate", format!("{:.4}", k.tlb_stats().hit_rate()));
    kv("psc hit rate", format!("{:.4}", k.psc_stats().hit_rate()));
}

fn main() {
    // `--threads N` (default 0 = one worker per core; 1 = serial loop).
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads =
                    args.next().and_then(|v| v.parse().ok()).expect("--threads needs a number");
            }
            other => panic!("unknown argument {other:?} (supported: --threads N)"),
        }
    }

    let mut tel = Counters::new("exp-table4");
    // "8 GB system": 16 MiB sim memory with a 1 MiB ZONE_PTP preserves the
    // paper's 1:256 zone ratio (n = 8 indicator bits, as on the real host).
    run_suite(
        "Table 4 — small host (8GB-analog: 16 MiB sim, 1 MiB ZONE_PTP)",
        16 << 20,
        1 << 20,
        threads,
        &mut tel,
        "overhead:small-host",
    );
    // "128 GB system": same ratio class, larger memory.
    run_suite(
        "Table 4 — large host (128GB-analog: 64 MiB sim, 4 MiB ZONE_PTP)",
        64 << 20,
        4 << 20,
        threads,
        &mut tel,
        "overhead:large-host",
    );

    report_cache_rates(&mut tel);

    header("Interpretation");
    kv("expected result", "every |Δ| within noise; suite means ≈ 0 (Table 4)");
    kv("paper totals", "SPEC mean -0.07%/+0.04%, Phoronix mean -0.08%/+0.25%");
    emit_telemetry(&tel);
}
