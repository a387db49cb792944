//! Per-layer metrics, named `<crate>.<metric>`.
//!
//! Every traced run prints every per-layer metric. A layer the workload
//! does not exercise reads 0 (no table4 trial forks, no campaign runs the
//! Table 4 runner). Counts come from the deterministic counters
//! `Kernel::record_counters` snapshots, averaged per operation; times
//! come from [`crate::trace`] spans, as the mean self time per operation
//! that ran the layer (a mean, so rare costly spans such as profiled
//! boots keep their share).

use std::collections::BTreeMap;

use cta_telemetry::Counters;

use crate::report::Report;

/// Span name → metric name, for every span-timed layer.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("core.boot", "core.boot_ms"),
    ("vm.isolate", "vm.isolate_ms"),
    ("vm.restore", "vm.restore_ms"),
    ("dram.digest", "dram.digest_ms"),
    ("dram.flip_log_drain", "dram.flip_log_drain_ms"),
    ("attack.run", "attack.run_ms"),
    ("attack.merge", "attack.merge_ms"),
    ("telemetry.record", "telemetry.record_ms"),
    ("workloads.run", "workloads.run_ms"),
];

/// Mean per-op self time of every span-timed layer.
pub fn span_metrics(report: &mut Report, per_op_ms: &BTreeMap<&'static str, Vec<f64>>) {
    for (span, metric) in SPAN_METRICS {
        let value = per_op_ms.get(span).map_or(0.0, |ms| ms.iter().sum::<f64>() / ms.len() as f64);
        report.metric(metric, value, "ms");
    }
}

fn get(c: &Counters, group: &str, key: &str) -> u64 {
    c.group(group).and_then(|g| g.get_u64(key)).unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counter-derived metrics of `ops` operations whose snapshots were merged
/// into `c`.
pub fn counter_metrics(report: &mut Report, c: &Counters, ops: u64) {
    let per_op = |v: u64| ratio(v, ops);
    let zones = |key: &str| -> u64 {
        c.groups()
            .filter(|(name, _)| name.starts_with("zone:"))
            .filter_map(|(_, g)| g.get_u64(key))
            .sum()
    };
    let hit_ratio = |group: &str| {
        let hits = get(c, group, "hits");
        ratio(hits, hits + get(c, group, "misses"))
    };
    report.metric("vm.walks", per_op(get(c, "kernel", "walks")), "count/op");
    report.metric("vm.tlb_hit_ratio", hit_ratio("tlb"), "ratio");
    report.metric("vm.psc_hit_ratio", hit_ratio("psc"), "ratio");
    report.metric("vm.pt_pages", per_op(get(c, "kernel", "pt_pages_allocated")), "count/op");
    report.metric("mem.allocations", per_op(zones("allocations")), "count/op");
    report.metric("mem.frees", per_op(zones("frees")), "count/op");
    for key in ["activations", "disturbances"] {
        report.metric(format!("dram.{key}"), per_op(get(c, "dram", key)), "count/op");
    }
    let flips = get(c, "dram", "flips_one_to_zero") + get(c, "dram", "flips_zero_to_one");
    report.metric("dram.flips", per_op(flips), "count/op");
    for key in ["reads", "writes", "rows_materialized"] {
        report.metric(format!("dram.{key}"), per_op(get(c, "dram", key)), "count/op");
    }
    report.metric("defense.refreshes", per_op(get(c, "defense", "targeted_refreshes")), "count/op");
    report.metric("defense.throttles", per_op(get(c, "defense", "activations_denied")), "count/op");
}

/// Simulated memory traffic recorded in `c`: DRAM reads plus writes.
pub fn dram_accesses(c: &Counters) -> u64 {
    get(c, "dram", "reads") + get(c, "dram", "writes")
}
