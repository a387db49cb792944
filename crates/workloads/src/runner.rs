use std::fmt;
use std::time::Instant;

use cta_mem::PAGE_SIZE;
use cta_vm::{Kernel, KernelPool, VirtAddr, VmError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::specs::WorkloadSpec;

const VA_BASE: u64 = 0x1_0000_0000;
const REGION_STRIDE: u64 = 4 << 20; // 4 MiB keeps regions in distinct PTs
const ACCESS_BATCH: usize = 64; // accesses per [`Kernel::access_batch`] issue

/// Measurements from one workload execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// Simulated time consumed (deterministic).
    pub sim_ns: u64,
    /// Host wall-clock time (noisy; informational).
    pub wall_ns: u128,
    /// Page-table walks performed.
    pub walks: u64,
    /// TLB hit rate over the run.
    pub tlb_hit_rate: f64,
    /// Page-table pages the workload caused to exist.
    pub pt_pages: u64,
}

/// The CTA-vs-stock comparison for one benchmark: a Table 4 row.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Mean simulated time on the stock kernel.
    pub baseline_sim_ns: f64,
    /// Mean simulated time with CTA.
    pub cta_sim_ns: f64,
    /// Mean host wall-clock time on the stock kernel.
    pub baseline_wall_ns: f64,
    /// Mean host wall-clock time with CTA.
    pub cta_wall_ns: f64,
    /// Repetitions averaged.
    pub repetitions: u32,
}

/// Baselines below this many (mean) nanoseconds cannot support a
/// meaningful relative delta; they indicate a degenerate spec or a
/// measurement that never ran.
const MIN_BASELINE_NS: f64 = 1e-6;

impl OverheadRow {
    /// Relative overhead of CTA in percent (positive = CTA slower), the
    /// quantity Table 4 reports — measured in deterministic simulated time.
    ///
    /// A zero/near-zero (or non-finite) baseline yields `0.0` instead of
    /// NaN/inf, so one degenerate spec cannot poison a Table 4 mean; the
    /// condition is reported by [`OverheadRow::degenerate_baseline`] and
    /// flagged in telemetry by [`record_overhead_rows`].
    pub fn delta_percent(&self) -> f64 {
        relative_percent(self.baseline_sim_ns, self.cta_sim_ns)
    }

    /// Wall-clock delta in percent: the noisy host-side measurement,
    /// comparable to the paper's real-machine numbers (which fluctuate
    /// within ±1.5%). Guarded against degenerate baselines like
    /// [`OverheadRow::delta_percent`].
    pub fn wall_delta_percent(&self) -> f64 {
        relative_percent(self.baseline_wall_ns, self.cta_wall_ns)
    }

    /// True when either baseline mean is too small (or non-finite) for the
    /// relative deltas to be meaningful.
    pub fn degenerate_baseline(&self) -> bool {
        !baseline_is_usable(self.baseline_sim_ns) || !baseline_is_usable(self.baseline_wall_ns)
    }
}

fn baseline_is_usable(baseline: f64) -> bool {
    baseline.is_finite() && baseline >= MIN_BASELINE_NS
}

fn relative_percent(baseline: f64, measured: f64) -> f64 {
    if !baseline_is_usable(baseline) || !measured.is_finite() {
        return 0.0;
    }
    (measured - baseline) / baseline * 100.0
}

/// Records a set of Table 4 rows into the `group` telemetry group:
/// per-benchmark deltas, the aggregate mean deltas the paper reports, and
/// a `degenerate_baseline:<name>` flag for every row whose deltas were
/// forced to zero by the baseline guard.
pub fn record_overhead_rows(c: &mut cta_telemetry::Counters, group: &str, rows: &[OverheadRow]) {
    let mut delta_sum = 0.0;
    let mut wall_sum = 0.0;
    for row in rows {
        c.set_f64(group, &format!("{}_delta_percent", row.name), row.delta_percent());
        if row.degenerate_baseline() {
            c.flag(&format!("degenerate_baseline:{}", row.name));
        }
        delta_sum += row.delta_percent();
        wall_sum += row.wall_delta_percent();
    }
    c.set_u64(group, "rows", rows.len() as u64);
    if !rows.is_empty() {
        let n = rows.len() as f64;
        c.set_f64(group, "mean_delta_percent", delta_sum / n);
        c.set_f64(group, "mean_wall_delta_percent", wall_sum / n);
    }
}

/// How [`Runner::run`] distributes a working set across mapped regions:
/// every page of the spec is honored exactly, with the remainder of
/// `working_set_pages / regions` spread one page each over the first
/// `working_set_pages % regions` regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionLayout {
    regions: u64,
    base: u64,
    extra: u64,
}

impl RegionLayout {
    /// Computes the layout for a spec-shaped `(working_set_pages, regions)`
    /// pair. At least one page per region is always mapped, so the total
    /// is `working_set_pages.max(regions)`.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    pub fn new(working_set_pages: u64, regions: u64) -> Self {
        assert!(regions > 0, "need at least one region");
        let total = working_set_pages.max(regions);
        RegionLayout { regions, base: total / regions, extra: total % regions }
    }

    /// Total pages mapped across all regions.
    pub fn total_pages(&self) -> u64 {
        self.base * self.regions + self.extra
    }

    /// Pages mapped in region `r`.
    pub fn pages_in_region(&self, r: u64) -> u64 {
        self.base + u64::from(r < self.extra)
    }

    /// Maps a flat page index in `0..total_pages()` to its
    /// `(region, page offset within region)` pair, counting pages
    /// region-by-region.
    pub fn locate(&self, page: u64) -> (u64, u64) {
        let fat = self.extra * (self.base + 1);
        if page < fat {
            (page / (self.base + 1), page % (self.base + 1))
        } else {
            let rest = page - fat;
            (self.extra + rest / self.base, rest % self.base)
        }
    }
}

impl fmt::Display for OverheadRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<18} {:+.2}%", self.name, self.delta_percent())
    }
}

/// Executes workload specs against simulated kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    /// Repetitions per measurement (the paper uses 10 for SPEC, 100 for
    /// Phoronix; simulated time is deterministic so fewer suffice).
    pub repetitions: u32,
    /// Seed stream for access patterns.
    pub seed: u64,
}

impl Default for Runner {
    fn default() -> Self {
        Runner { repetitions: 3, seed: 0x57AB1E }
    }
}

impl Runner {
    /// Runs one workload on `kernel` (fresh process; torn down afterwards).
    ///
    /// # Errors
    ///
    /// Kernel errors (out of memory for oversized specs).
    pub fn run(&self, kernel: &mut Kernel, spec: &WorkloadSpec) -> Result<RunMeasurement, VmError> {
        let wall_start = Instant::now();
        let sim_start = kernel.now_ns();
        let walks_start = kernel.stats().walks;
        let pt_start = kernel.stats().pt_pages_allocated;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ hash_name(spec.name));

        let pid = kernel.create_process(false)?;
        // Lay out the working set across the regions, distributing the
        // remainder so the spec's page count is honored exactly (plain
        // division used to silently shrink e.g. 160 pages / 6 regions to
        // 156 mapped pages).
        let layout = RegionLayout::new(spec.working_set_pages, spec.regions);
        let mut regions = Vec::with_capacity(spec.regions as usize);
        for r in 0..spec.regions {
            let va = VirtAddr(VA_BASE + r * REGION_STRIDE);
            kernel.mmap_anonymous(pid, va, layout.pages_in_region(r) * PAGE_SIZE, true)?;
            regions.push(va);
        }

        // Access phase with interleaved churn. Accesses are issued through
        // [`Kernel::access_batch`] in batches of up to `ACCESS_BATCH` so
        // region sweeps amortize per-access dispatch (process lookup, CR3
        // fetch) over many operations. Batches share one rolling 64-byte
        // buffer — reads fill it, writes store its current contents — and
        // break at churn boundaries, so both the rng draw order and the
        // DRAM operation order are identical to a per-access loop and the
        // simulated-time fields stay bit-for-bit reproducible.
        let churn_every =
            spec.access_ops.checked_div(spec.churn_cycles).map_or(u64::MAX, |per| per.max(1));
        let mut hot_page = 0u64;
        let mut buf = [0u8; 64];
        let mut batch: Vec<(VirtAddr, bool)> = Vec::with_capacity(ACCESS_BATCH);
        for op in 0..spec.access_ops {
            // Pick a page: stay hot with probability `locality`.
            let page = if rng.gen::<f64>() < spec.locality {
                hot_page
            } else {
                let p = rng.gen_range(0..layout.total_pages());
                hot_page = p;
                p
            };
            let (region_idx, page_off) = layout.locate(page);
            let region = &regions[region_idx as usize];
            let va = region.offset(page_off * PAGE_SIZE + (page % 63) * 64);
            batch.push((va, rng.gen::<f64>() < spec.write_fraction));
            let churn_now = op % churn_every == churn_every - 1;
            if batch.len() == ACCESS_BATCH || churn_now || op + 1 == spec.access_ops {
                kernel.access_batch(pid, &batch, &mut buf)?;
                batch.clear();
            }
            // Churn: unmap and remap one region (fresh frames + PTEs). The
            // batch is always drained first, so churn never reorders DRAM
            // traffic relative to the accesses that precede it.
            if churn_now {
                let idx = rng.gen_range(0..regions.len());
                let bytes = layout.pages_in_region(idx as u64) * PAGE_SIZE;
                kernel.munmap(pid, regions[idx], bytes)?;
                kernel.mmap_anonymous(pid, regions[idx], bytes, true)?;
            }
        }

        let tlb = kernel.tlb_stats();
        let measurement = RunMeasurement {
            sim_ns: kernel.now_ns() - sim_start,
            wall_ns: wall_start.elapsed().as_nanos(),
            walks: kernel.stats().walks - walks_start,
            tlb_hit_rate: tlb.hit_rate(),
            pt_pages: kernel.stats().pt_pages_allocated - pt_start,
        };
        kernel.destroy_process(pid)?;
        Ok(measurement)
    }

    /// Runs a benchmark on both machines and produces its Table 4 row:
    /// [`Runner::compare_many`] over the one spec, serially.
    ///
    /// `build` receives `true` for the CTA machine and `false` for stock.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from either machine.
    pub fn compare<F>(&self, build: F, spec: &WorkloadSpec) -> Result<OverheadRow, VmError>
    where
        F: Fn(bool) -> Kernel + Sync,
    {
        let mut rows = self.compare_many(build, std::slice::from_ref(spec), 1)?;
        Ok(rows.pop().expect("one row per spec"))
    }

    /// Runs the whole Table 4 harness — every benchmark × repetition ×
    /// {stock, CTA} cell — across up to `threads` worker threads
    /// (`0` = one per core), returning one [`OverheadRow`] per spec in
    /// input order. `build` receives `true` for the CTA machine and `false`
    /// for stock.
    ///
    /// Each worker keeps a [`KernelPool`] of two parents, one stock and one
    /// CTA, booted by `build` on the worker's first cell of that kind
    /// (simulated machines are single-threaded and never cross threads).
    /// Every cell runs on its parent under an undo journal and is rolled
    /// back afterwards, so each cell starts from the state of a fresh
    /// boot. The per-spec reduction accumulates repetitions in repetition
    /// order on the calling thread, so every *simulated-time* field is
    /// bit-identical to booting a fresh machine per cell and running the
    /// cells serially, at any thread count. Wall-clock fields measure the
    /// host and are inherently noisy.
    ///
    /// # Errors
    ///
    /// The lowest-indexed cell's kernel error, if any cell failed.
    pub fn compare_many<F>(
        &self,
        build: F,
        specs: &[WorkloadSpec],
        threads: usize,
    ) -> Result<Vec<OverheadRow>, VmError>
    where
        F: Fn(bool) -> Kernel + Sync,
    {
        let reps = self.repetitions as usize;
        let jobs = specs.len() * reps;
        let cell = |pool: &mut KernelPool<bool>, protected: bool, spec| {
            pool.run_journaled(&protected, || Ok(build(protected)), |k| self.run(k, spec))?
        };
        // One job per benchmark×repetition: the stock and CTA runs back to
        // back, like a Table 4 row.
        let cells = cta_parallel::try_parallel_map(
            jobs,
            threads,
            || KernelPool::new(2),
            |pool, job| {
                let spec = &specs[job / reps];
                Ok::<_, VmError>((cell(pool, false, spec)?, cell(pool, true, spec)?))
            },
        )?;

        let n = self.repetitions as f64;
        Ok(specs
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                let mut baseline = 0f64;
                let mut cta = 0f64;
                let mut baseline_wall = 0f64;
                let mut cta_wall = 0f64;
                // Repetition order, exactly like `compare`.
                for (stock_m, cta_m) in &cells[s * reps..(s + 1) * reps] {
                    baseline += stock_m.sim_ns as f64;
                    baseline_wall += stock_m.wall_ns as f64;
                    cta += cta_m.sim_ns as f64;
                    cta_wall += cta_m.wall_ns as f64;
                }
                OverheadRow {
                    name: spec.name.to_string(),
                    baseline_sim_ns: baseline / n,
                    cta_sim_ns: cta / n,
                    baseline_wall_ns: baseline_wall / n,
                    cta_wall_ns: cta_wall / n,
                    repetitions: self.repetitions,
                }
            })
            .collect())
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{phoronix, spec2006};
    use cta_core::SystemBuilder;

    fn machine(protected: bool) -> Kernel {
        SystemBuilder::new(16 << 20)
            .ptp_bytes(1 << 20)
            .seed(77)
            .protected(protected)
            .build()
            .unwrap()
    }

    /// Simulated `(stock, CTA)` means per spec, computed the way the
    /// harness did before pooled parents: a fresh machine for every cell,
    /// cells in order.
    fn fresh_boot_sim_ns(runner: &Runner, specs: &[WorkloadSpec]) -> Vec<(f64, f64)> {
        let n = runner.repetitions as f64;
        let sim_ns = |protected, spec| {
            runner.run(&mut machine(protected), spec).expect("cell runs").sim_ns as f64
        };
        specs
            .iter()
            .map(|spec| {
                let (mut stock, mut cta) = (0f64, 0f64);
                for _ in 0..runner.repetitions {
                    stock += sim_ns(false, spec);
                    cta += sim_ns(true, spec);
                }
                (stock / n, cta / n)
            })
            .collect()
    }

    #[test]
    fn compare_many_is_bit_identical_to_serial_compare() {
        let specs: Vec<WorkloadSpec> = spec2006().into_iter().chain(phoronix()).collect();
        assert_eq!(specs.len(), 27);
        let runner = Runner { repetitions: 2, seed: 0x1234 };
        let reference = fresh_boot_sim_ns(&runner, &specs);
        for threads in [1, 2] {
            let pooled = runner.compare_many(machine, &specs, threads).unwrap();
            assert_eq!(pooled.len(), specs.len());
            for ((spec, row), (stock, cta)) in specs.iter().zip(&pooled).zip(&reference) {
                assert_eq!(row.name, spec.name);
                // Simulated-time fields are the deterministic contract:
                // compare at the bit level, not within an epsilon.
                assert_eq!(row.baseline_sim_ns.to_bits(), stock.to_bits(), "{}", spec.name);
                assert_eq!(row.cta_sim_ns.to_bits(), cta.to_bits(), "{}", spec.name);
                assert_eq!(row.repetitions, runner.repetitions);
            }
        }
        let one = runner.compare(machine, &specs[4]).unwrap();
        assert_eq!(one.baseline_sim_ns.to_bits(), reference[4].0.to_bits());
        assert_eq!(one.cta_sim_ns.to_bits(), reference[4].1.to_bits());
    }

    #[test]
    fn compare_many_returns_the_lowest_failing_cells_error() {
        let base = spec2006()[0];
        // More pages than the 16 MiB machine holds: the stock run's second
        // region fails to map after the first mapped.
        let too_big = WorkloadSpec { name: "too-big", working_set_pages: 5000, regions: 2, ..base };
        // A page table per region, more than the 1 MiB ZONE_PTP holds: only
        // the CTA run fails.
        let ptp_hungry =
            WorkloadSpec { name: "ptp-hungry", working_set_pages: 400, regions: 400, ..base };
        let runner = Runner { repetitions: 2, seed: 0x1234 };
        let too_big_err = runner.run(&mut machine(false), &too_big).unwrap_err();
        let ptp_err = runner.run(&mut machine(true), &ptp_hungry).unwrap_err();
        assert!(runner.run(&mut machine(false), &ptp_hungry).is_ok());
        assert_ne!(too_big_err, ptp_err, "the two failures must be told apart");
        let ok = spec2006()[1];
        for threads in [1, 2] {
            let err = runner.compare_many(machine, &[base, too_big, ok, ptp_hungry], threads);
            assert_eq!(err.unwrap_err(), too_big_err, "threads = {threads}");
            let err = runner.compare_many(machine, &[base, ptp_hungry, ok, too_big], threads);
            assert_eq!(err.unwrap_err(), ptp_err, "threads = {threads}");
        }
    }

    #[test]
    fn run_produces_activity() {
        let mut k = machine(false);
        let spec = &spec2006()[0];
        let m = Runner::default().run(&mut k, spec).unwrap();
        assert!(m.sim_ns > 0);
        assert!(m.walks > 0);
        assert!(m.pt_pages >= spec.regions);
        assert!(m.tlb_hit_rate > 0.0);
    }

    #[test]
    fn run_is_deterministic_in_sim_time() {
        let spec = &spec2006()[3]; // mcf
        let runner = Runner::default();
        let a = runner.run(&mut machine(false), spec).unwrap();
        let b = runner.run(&mut machine(false), spec).unwrap();
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.walks, b.walks);
    }

    #[test]
    fn cta_overhead_is_negligible_like_table4() {
        // The headline claim: per-benchmark |Δ| stays within the paper's
        // observed band (max |Δ| in Table 4 is 1.4%).
        let runner = Runner { repetitions: 1, seed: 5 };
        for spec in spec2006().iter().take(3).chain(phoronix().iter().take(3)) {
            let row = runner.compare(machine, spec).unwrap();
            assert!(
                row.delta_percent().abs() < 2.0,
                "{}: Δ = {:.3}%",
                spec.name,
                row.delta_percent()
            );
        }
    }

    #[test]
    fn workload_teardown_releases_memory() {
        let mut k = machine(true);
        let free0 = k.allocator().free_page_count();
        Runner::default().run(&mut k, &spec2006()[1]).unwrap();
        assert_eq!(k.allocator().free_page_count(), free0);
    }

    #[test]
    fn region_layout_honors_every_page() {
        for (ws, regions) in [(160, 6), (220, 3), (90, 4), (64, 64), (1, 5), (7, 7), (100, 1)] {
            let layout = RegionLayout::new(ws, regions);
            let per_region: Vec<u64> = (0..regions).map(|r| layout.pages_in_region(r)).collect();
            assert_eq!(
                per_region.iter().sum::<u64>(),
                ws.max(regions),
                "ws={ws} regions={regions}"
            );
            assert_eq!(layout.total_pages(), ws.max(regions));
            let max = *per_region.iter().max().unwrap();
            let min = *per_region.iter().min().unwrap();
            assert!(max - min <= 1, "uneven split for ws={ws} regions={regions}: {per_region:?}");
            // locate() agrees with counting pages region by region.
            let mut page = 0u64;
            for (r, count) in per_region.iter().enumerate() {
                for off in 0..*count {
                    assert_eq!(layout.locate(page), (r as u64, off));
                    page += 1;
                }
            }
            assert_eq!(page, layout.total_pages());
        }
    }

    #[test]
    fn run_maps_the_exact_working_set() {
        // perlbench: 160 pages over 6 regions — indivisible, the case the
        // old truncating layout silently shrank to 156 pages.
        let spec = &spec2006()[0];
        assert!(
            !spec.working_set_pages.is_multiple_of(spec.regions),
            "spec no longer exercises remainder"
        );
        let no_churn = WorkloadSpec { churn_cycles: 0, access_ops: 50, ..*spec };
        let mut k = machine(false);
        let before = k.stats().user_pages_allocated;
        Runner::default().run(&mut k, &no_churn).unwrap();
        assert_eq!(
            k.stats().user_pages_allocated - before,
            spec.working_set_pages,
            "mapped pages must equal the spec's working set exactly"
        );
    }

    #[test]
    fn degenerate_baseline_yields_zero_not_nan() {
        let row = OverheadRow {
            name: "empty".into(),
            baseline_sim_ns: 0.0,
            cta_sim_ns: 10.0,
            baseline_wall_ns: f64::NAN,
            cta_wall_ns: 5.0,
            repetitions: 1,
        };
        assert!(row.degenerate_baseline());
        assert_eq!(row.delta_percent(), 0.0);
        assert_eq!(row.wall_delta_percent(), 0.0);

        let mut c = cta_telemetry::Counters::new("t");
        record_overhead_rows(&mut c, "overhead", &[row]);
        assert!(c.has_flag("degenerate_baseline:empty"));
        assert!(!c.has_non_finite());
    }

    #[test]
    fn record_overhead_rows_reports_means() {
        let mk = |name: &str, cta: f64| OverheadRow {
            name: name.into(),
            baseline_sim_ns: 100.0,
            cta_sim_ns: cta,
            baseline_wall_ns: 100.0,
            cta_wall_ns: cta,
            repetitions: 1,
        };
        let mut c = cta_telemetry::Counters::new("t");
        record_overhead_rows(&mut c, "overhead", &[mk("a", 101.0), mk("b", 99.0)]);
        let g = c.group("overhead").unwrap();
        assert_eq!(g.get_u64("rows"), Some(2));
        assert!((g.get_f64("mean_delta_percent").unwrap()).abs() < 1e-12);
        assert_eq!(g.get_f64("a_delta_percent"), Some(1.0));
        assert!(c.flags().next().is_none());
    }

    #[test]
    fn overhead_row_display() {
        let row = OverheadRow {
            name: "bzip2".into(),
            baseline_sim_ns: 100.0,
            cta_sim_ns: 100.34,
            baseline_wall_ns: 200.0,
            cta_wall_ns: 199.0,
            repetitions: 1,
        };
        assert!((row.delta_percent() - 0.34).abs() < 1e-9);
        assert!((row.wall_delta_percent() + 0.5).abs() < 1e-9);
        assert!(row.to_string().contains("bzip2"));
    }
}
