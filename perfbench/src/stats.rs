//! Order statistics for reported timings.

/// Samples a reported percentile must leave beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (any order), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank: such a
/// percentile would rest on a handful of outliers.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    let n = samples.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for even counts), or
/// `None` when empty. For summaries with no sample-count requirement.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The median over consecutive chunks of `chunk` events of each chunk's
/// rate: its summed weight over the time it took, per second. `events`
/// are (time in seconds, weight). A median of chunks keeps a burst of
/// host noise, or one very slow operation, from moving the whole run.
/// `None` when fewer than `chunk + 1` events arrived.
pub fn chunked_rate(events: &[(f64, f64)], chunk: usize) -> Option<f64> {
    assert!(chunk > 0, "chunks hold at least one event");
    let mut sorted = events.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rates: Vec<f64> = (chunk..sorted.len())
        .step_by(chunk)
        .map(|end| {
            let weight: f64 = sorted[end + 1 - chunk..=end].iter().map(|e| e.1).sum();
            weight / (sorted[end].0 - sorted[end - chunk].0)
        })
        .collect();
    median(&rates)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
