//! Algorithm 1: the brute-force RowHammer attack against a CTA system.
//!
//! With CTA in place the attacker cannot hammer `ZONE_PTP` rows directly
//! (it owns no memory above the low water mark). Algorithm 1's insight is
//! that the **MMU's own page-table walks** activate the PTE rows: by
//! mapping a file at many addresses (filling `ZONE_PTP` with page tables)
//! and then accessing those addresses in a TLB-flush loop, the attacker
//! turns the walker into its aggressor-row driver — then scans its own
//! mappings for self-reference, one candidate target page at a time,
//! brute-forcing the whole physical address space below the mark.
//!
//! Section 5 shows the expected time for this attack is measured in
//! *days to years*; [`BruteForceCtaAttack`] runs a budgeted number of
//! iterations faithfully and extrapolates total cost with
//! [`AttackTimeModel`](crate::outcome::AttackTimeModel), regenerating the
//! paper's numbers from the observed per-step structure.

use cta_mem::{PtLevel, PAGE_SIZE};
use cta_vm::{Access, Kernel, Pte, VirtAddr, VmError};

use crate::hammer::HammerDriver;
use crate::outcome::AttackOutcome;

const VA_BASE: u64 = 0x7000_0000;

/// Per-run accounting that feeds the attack-time extrapolation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BruteForceReport {
    /// Target pages actually attempted (the paper loops over *all* pages
    /// below the mark; we budget).
    pub target_pages_tried: u64,
    /// Page-table rows hammered via walk loops.
    pub rows_hammered: u64,
    /// PTEs checked for self-reference.
    pub ptes_checked: u64,
    /// Mappings created to fill `ZONE_PTP`.
    pub fill_mappings: u64,
    /// Regions whose scan faulted because hammering corrupted a
    /// page-table entry on their own walk path (in a real system the
    /// process crashes here — a failed, *detected* attack, not an
    /// escalation).
    pub faulted_regions: u64,
}

/// The Algorithm 1 driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BruteForceCtaAttack {
    /// How many 2 MiB regions to map when filling `ZONE_PTP` with PTEs.
    pub fill_regions: u64,
    /// Walks per hammered mapping (should exceed the hammer threshold to
    /// disturb; the simulated threshold is configurable).
    pub walks_per_row: u64,
    /// Target-page iterations to actually execute.
    pub target_page_budget: u64,
}

impl Default for BruteForceCtaAttack {
    fn default() -> Self {
        BruteForceCtaAttack { fill_regions: 24, walks_per_row: 256, target_page_budget: 2 }
    }
}

impl BruteForceCtaAttack {
    /// Runs the budgeted attack, returning the outcome and the accounting
    /// report.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only.
    pub fn run(&self, kernel: &mut Kernel) -> Result<(AttackOutcome, BruteForceReport), VmError> {
        let mut out = AttackOutcome::default();
        let mut report = BruteForceReport::default();
        let t0 = kernel.now_ns();
        let flips0 = kernel.dram().stats().total_flips();
        let pid = kernel.create_process(false)?;
        let max_pfn = kernel.dram().capacity_bytes() / PAGE_SIZE;

        for target in 0..self.target_page_budget {
            // Step (1): fill ZONE_PTP with PTEs. Each fresh 2 MiB region
            // forces a new last-level page table; under CTA they all land in
            // ZONE_PTP.
            let file = kernel.create_file(PAGE_SIZE)?;
            let mut region_vas = Vec::new();
            for i in 0..self.fill_regions {
                let va = VirtAddr(VA_BASE + target * self.fill_regions * (2 << 20) + i * (2 << 20));
                match kernel.mmap_file(pid, va, file, true) {
                    Ok(()) => {
                        region_vas.push(va);
                        report.fill_mappings += 1;
                    }
                    Err(VmError::Alloc(_)) => break, // ZONE_PTP exhausted
                    Err(e) => return Err(e),
                }
            }
            report.target_pages_tried += 1;
            out.mappings_created += region_vas.len() as u64;

            // Step (2): hammer each PT row through walk loops.
            let driver = HammerDriver::new();
            for va in &region_vas {
                let interval = kernel.dram().config().refresh_interval_ns;
                kernel.dram_mut().advance(interval);
                driver.hammer_by_walks(kernel, pid, *va, self.walks_per_row)?;
                report.rows_hammered += 1;
                out.rows_hammered += 1;
            }

            // Step (3): check all PTEs for self-reference by reading each
            // mapping and pattern-matching (the 600 ns/PTE memcmp of §5).
            for va in &region_vas {
                let mut buf = vec![0u8; PAGE_SIZE as usize];
                if kernel.read_virt(pid, *va, &mut buf, Access::user_read()).is_err() {
                    report.faulted_regions += 1;
                    continue;
                }
                let pte_like = buf
                    .chunks_exact(8)
                    .map(|c| Pte(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .inspect(|_| report.ptes_checked += 1)
                    .filter(|p| p.looks_like_user_pte(max_pfn))
                    .count();
                if pte_like >= 2 {
                    out.self_reference_found = true;
                    out.note(format!("self-reference candidate at {va} (target {target})"));
                }
            }

            // Release the fill so the next target page can be re-sprayed.
            for va in &region_vas {
                let _ = kernel.munmap(pid, *va, PAGE_SIZE);
            }
        }

        out.flips_induced = kernel.dram().stats().total_flips() - flips0;
        out.sim_time_ns = kernel.now_ns() - t0;
        out.note(format!(
            "budgeted run: {} targets, {} rows hammered, {} PTEs checked",
            report.target_pages_tried, report.rows_hammered, report.ptes_checked
        ));
        Ok((out, report))
    }
}

// `PtLevel` appears in doc comments only.
#[allow(unused_imports)]
use PtLevel as _DocOnly;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::AttackTimeModel;
    use cta_core::verify::verify_system;
    use cta_core::SystemBuilder;
    use cta_dram::DisturbanceParams;

    fn cta_system(seed: u64) -> cta_vm::Kernel {
        SystemBuilder::new(8 << 20)
            .ptp_bytes(512 * 1024)
            .seed(seed)
            .protected(true)
            .disturbance(DisturbanceParams {
                pf: 0.02,
                hammer_threshold: 128, // walk loops can reach this in-test
                ..DisturbanceParams::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn algorithm1_never_escalates_under_cta() {
        for seed in 0..4u64 {
            let mut k = cta_system(seed);
            let (out, report) = BruteForceCtaAttack::default().run(&mut k).unwrap();
            assert!(!out.success(), "seed {seed}: {out}");
            assert!(report.target_pages_tried > 0);
            // Every scan either read PTE candidates or faulted because the
            // walker corrupted its own path (a crashed — still failed —
            // attack); both are non-escalation outcomes, and which one a
            // given seed produces depends on where the flips landed.
            assert!(
                report.ptes_checked > 0 || report.faulted_regions > 0,
                "seed {seed}: scan phase never engaged: {report:?}"
            );
            assert_eq!(verify_system(&k).unwrap().self_references().count(), 0);
        }
    }

    #[test]
    fn walk_hammering_does_disturb_ptp_rows() {
        // The attack's hammer mechanism works — flips do occur inside
        // ZONE_PTP — they are just monotonic and therefore harmless.
        let mut k = cta_system(7);
        let (out, _) =
            BruteForceCtaAttack { fill_regions: 16, walks_per_row: 512, target_page_budget: 1 }
                .run(&mut k)
                .unwrap();
        assert!(out.flips_induced > 0, "expected disturbance flips in PT rows");
    }

    #[test]
    fn projection_reproduces_paper_scale() {
        // 8 GiB / 32 MiB PTP: 2^21−8192 targets, 256 rows, 16384 PTEs/row.
        let ns = AttackTimeModel::default().worst_case_ns((1 << 21) - 8192, 256, 16384);
        let days = ns as f64 / 1e9 / 86_400.0;
        assert!((days - 461.4).abs() < 5.0, "worst case ≈ 461 days, got {days}");
    }
}
