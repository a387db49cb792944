//! Host time the benchmark actually ran: wall time minus the time the
//! hypervisor stole from this machine's CPUs.
//!
//! On a virtual machine the host can deschedule a busy vCPU for seconds
//! at a time, and how much it does depends on the neighbours, not on this
//! program: it moved wall-clock throughput by up to a third between
//! otherwise identical runs. The kernel counts that time as `steal` in
//! `/proc/stat`. A sampler thread records it while a run measures, and
//! every duration the benchmark reports is converted afterwards:
//! `run(t) = t - stolen(t) / cpus`, with stolen time interpolated between
//! samples. Where the kernel reports no steal (bare metal), run time is
//! wall time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the sampler reads `/proc/stat`.
const SAMPLE: Duration = Duration::from_millis(50);
/// `/proc/stat` counts in units of `USER_HZ`, 100 per second on Linux.
const TICKS_PER_S: f64 = 100.0;

/// Stolen seconds per CPU so far, from `/proc/stat`.
fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut lines = stat.lines();
    let total = lines.next()?.strip_prefix("cpu ")?;
    let steal: f64 = total.split_whitespace().nth(7)?.parse().ok()?;
    let cpus = lines.filter(|l| l.starts_with("cpu")).count().max(1);
    Some(steal / TICKS_PER_S / cpus as f64)
}

/// Records stolen time from creation until [`Self::finish`].
pub struct StealClock {
    origin: Instant,
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<Vec<(f64, f64)>>,
}

impl StealClock {
    /// Starts the sampler thread.
    pub fn start() -> Self {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                // Checked before the sample, so the last one postdates
                // every instant the run recorded.
                let last = flag.load(Ordering::Relaxed);
                if let Some(stolen) = stolen_s() {
                    samples.push((origin.elapsed().as_secs_f64(), stolen));
                }
                if last {
                    break samples;
                }
                std::thread::sleep(SAMPLE);
            }
        });
        StealClock { origin, stop, sampler }
    }

    /// Stops and joins the sampler.
    pub fn finish(self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.sampler.join().expect("the steal sampler does not panic");
        Timeline { origin: self.origin, samples }
    }
}

/// Stolen time over a finished run.
pub struct Timeline {
    origin: Instant,
    // (wall seconds since origin, stolen seconds per CPU), ascending.
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    /// Seconds per CPU stolen between the first sample and `wall`.
    fn stolen_at(&self, wall: f64) -> f64 {
        let s = &self.samples;
        let Some(&(_, first)) = s.first() else { return 0.0 };
        let i = s.partition_point(|&(w, _)| w <= wall);
        let stolen = match (i.checked_sub(1).map(|j| s[j]), s.get(i)) {
            (None, _) => first,
            // `partition_point` puts `wall` in `[wa, wb)`, so `wb > wa`.
            (Some((wa, sa)), Some(&(wb, sb))) => sa + (sb - sa) * (wall - wa) / (wb - wa),
            (Some((_, sa)), None) => sa,
        };
        stolen - first
    }

    /// Run seconds from the clock's start to `t`.
    pub fn run_s(&self, t: Instant) -> f64 {
        let wall = t.saturating_duration_since(self.origin).as_secs_f64();
        wall - self.stolen_at(wall)
    }

    /// Run seconds between `a` and `b`.
    pub fn between(&self, a: Instant, b: Instant) -> f64 {
        self.run_s(b) - self.run_s(a)
    }
}
