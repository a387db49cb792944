//! The probabilistic PTE-spray privilege-escalation attack (Figure 3).
//!
//! Faithful to Seaborn & Dullien's exploit structure:
//!
//! 1. **Spray**: map one RW file into many 2 MiB-spaced virtual regions, so
//!    the kernel builds one page table per region; interleave one anonymous
//!    page per region so the attacker owns aggressor rows physically
//!    adjacent to the sprayed page tables (on a stock kernel, the buddy
//!    allocator interleaves them naturally).
//! 2. **Hammer** the owned aggressor rows.
//! 3. **Scan** every owned mapping: a page whose content changed into
//!    PTE-looking 64-bit words is a corrupted PTE now pointing at a page
//!    table — *PTE self-reference*.
//! 4. **Exploit**: use the writable window onto that page table to learn
//!    the attacker's own physical frames, locate the virtual region the
//!    table serves with a marker probe, then walk all of physical memory
//!    one frame at a time until the kernel secret is found — and overwrite
//!    it.

use cta_mem::PAGE_SIZE;
use cta_vm::{Access, Kernel, Pid, Pte, PteFlags, VirtAddr, VmError};

use crate::hammer::HammerDriver;
use crate::outcome::AttackOutcome;

const REGION_STRIDE: u64 = 2 << 20;
const VA_BASE: u64 = 0x4000_0000;
const MARKER: [u8; 16] = *b"MARKER-SPRAY-V1!";

/// Configuration of the spray attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SprayAttack {
    /// Number of 2 MiB virtual regions to spray page tables into.
    pub regions: u64,
    /// Pages in the sprayed file (≥ 2; the exploit needs two windows).
    pub file_pages: u64,
    /// Maximum aggressor rows to hammer.
    pub max_hammer_rows: u64,
    /// Flush the TLB and paging-structure caches before every probe
    /// (each virtual access and each hammer pass), the way Algorithm 1
    /// interleaves accesses with `invlpg`. Forces every translation to
    /// walk live DRAM, making the attack's DRAM traffic independent of
    /// the machine's translation-cache configuration.
    pub flush_per_probe: bool,
}

impl Default for SprayAttack {
    fn default() -> Self {
        SprayAttack { regions: 64, file_pages: 2, max_hammer_rows: 64, flush_per_probe: false }
    }
}

impl SprayAttack {
    /// Invalidates all translation caches before a probe when
    /// `flush_per_probe` is set, so the next access walks from CR3.
    fn probe_sync(&self, kernel: &mut Kernel) {
        if self.flush_per_probe {
            kernel.flush_tlb();
        }
    }

    /// Runs the attack as a fresh unprivileged process on `kernel`.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only (process creation, out-of-memory during
    /// spray). Attack-level failures are reported in the outcome, not as
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if `file_pages < 2`.
    pub fn run(&self, kernel: &mut Kernel) -> Result<AttackOutcome, VmError> {
        assert!(self.file_pages >= 2, "exploit needs at least two file pages");
        let mut out = AttackOutcome::default();
        let t0 = kernel.now_ns();
        let flips0 = kernel.dram().stats().total_flips();

        // --- Phase 1: spray -------------------------------------------------
        let pid = kernel.create_process(false)?;
        let file = kernel.create_file(self.file_pages * PAGE_SIZE)?;
        let mut region_vas: Vec<VirtAddr> = Vec::new();
        for i in 0..self.regions {
            let va = VirtAddr(VA_BASE + i * REGION_STRIDE);
            // Memory (or ZONE_PTP) may run out mid-spray: saturating the
            // zone is normal attacker behavior, not an error.
            match kernel.mmap_file(pid, va, file, true) {
                Ok(()) => {}
                Err(VmError::Alloc(_)) => break,
                Err(e) => return Err(e),
            }
            let anon = va.offset(self.file_pages * PAGE_SIZE);
            match kernel.mmap_anonymous(pid, anon, PAGE_SIZE, true) {
                Ok(()) => {}
                Err(VmError::Alloc(_)) => {
                    region_vas.push(va);
                    break;
                }
                Err(e) => return Err(e),
            }
            region_vas.push(va);
            out.mappings_created += self.file_pages + 1;
        }
        if region_vas.is_empty() {
            out.note("spray could not create any mappings".to_string());
            out.sim_time_ns = kernel.now_ns() - t0;
            return Ok(out);
        }
        out.note(format!("sprayed {} regions ({} mappings)", self.regions, out.mappings_created));
        // Stamp each file page with a distinctive pattern. Writes may fault
        // if ambient flips have already clipped one of our own mappings
        // (true-cell 1→0 flips can clear present bits — availability, not
        // escalation); tolerate it.
        for j in 0..self.file_pages {
            let pattern = vec![0xA0u8 | (j as u8 + 1); 32];
            self.probe_sync(kernel);
            let _ = kernel.write_virt(
                pid,
                region_vas[0].offset(j * PAGE_SIZE),
                &pattern,
                Access::user_write(),
            );
        }

        // --- Phase 2: hammer -------------------------------------------------
        let driver = HammerDriver::new();
        for va in region_vas.iter().take(self.max_hammer_rows as usize) {
            let anon = va.offset(self.file_pages * PAGE_SIZE);
            self.probe_sync(kernel);
            if driver.hammer_row_of(kernel, pid, anon).is_ok() {
                out.rows_hammered += 1;
            }
        }
        out.flips_induced = kernel.dram().stats().total_flips() - flips0;
        out.note(format!(
            "hammered {} rows, {} flips induced",
            out.rows_hammered, out.flips_induced
        ));

        // --- Phase 3: scan for corrupted mappings ---------------------------
        let max_pfn = kernel.dram().capacity_bytes() / PAGE_SIZE;
        let mut candidates: Vec<VirtAddr> = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        for va in &region_vas {
            for j in 0..=self.file_pages {
                let page_va = va.offset(j * PAGE_SIZE);
                self.probe_sync(kernel);
                if kernel.read_virt(pid, page_va, &mut buf, Access::user_read()).is_err() {
                    continue;
                }
                // Only a word with its present bit set looks like a PTE, so a
                // 64-byte block whose words OR to no present bit is skipped.
                let pte_like: usize = (buf.as_chunks::<64>().0.iter())
                    .map(|block| {
                        let words =
                            block.as_chunks::<8>().0.iter().map(|w| Pte(u64::from_le_bytes(*w)));
                        if !Pte(words.clone().fold(0, |acc, pte| acc | pte.0)).present() {
                            return 0;
                        }
                        words.filter(|pte| pte.looks_like_user_pte(max_pfn)).count()
                    })
                    .sum();
                if pte_like >= 2 {
                    candidates.push(page_va);
                }
            }
        }
        if candidates.is_empty() {
            out.note("scan found no PTE-looking pages: no self-reference");
            out.sim_time_ns = kernel.now_ns() - t0;
            return Ok(out);
        }
        out.self_reference_found = true;
        out.note(format!("{} candidate self-references found", candidates.len()));

        // --- Phase 4: exploit ------------------------------------------------
        for candidate in candidates {
            match self.exploit(kernel, pid, candidate, &region_vas, max_pfn, &mut out) {
                Ok(true) => break,
                Ok(false) => continue,
                Err(_) => continue,
            }
        }
        out.sim_time_ns = kernel.now_ns() - t0;
        Ok(out)
    }

    /// Attempts the full exploit chain through one candidate window.
    fn exploit(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        va_pte: VirtAddr,
        region_vas: &[VirtAddr],
        max_pfn: u64,
        out: &mut AttackOutcome,
    ) -> Result<bool, VmError> {
        // Pick a probe entry that cannot clobber our own window.
        let leaf_idx = va_pte.index(cta_mem::PtLevel::Pt);
        let probe_entry: u64 = if leaf_idx == 1 { 0 } else { 1 };
        let src_entry: u64 = 1 - probe_entry;

        // Learn the physical frame of file page `src_entry` by *reading the
        // page table through our corrupted mapping* — this is the point
        // where the attack breaks VA→PA secrecy.
        let mut raw = [0u8; 8];
        self.probe_sync(kernel);
        kernel.read_virt(pid, va_pte.offset(src_entry * 8), &mut raw, Access::user_read())?;
        let src_pte = Pte(u64::from_le_bytes(raw));
        if !src_pte.looks_like_user_pte(max_pfn) {
            return Ok(false);
        }
        let f_src = src_pte.pfn();

        // Craft: table[probe_entry] := file page `src_entry`'s frame.
        let crafted = Pte::new(f_src, PteFlags::user_data());
        self.probe_sync(kernel);
        kernel.write_virt(
            pid,
            va_pte.offset(probe_entry * 8),
            &crafted.0.to_le_bytes(),
            Access::user_write(),
        )?;
        kernel.flush_tlb();

        // Marker-probe: stamp file page `src_entry`, then find the region
        // whose page `probe_entry` echoes the marker — that region is served
        // by the table behind our window. Use any still-writable mapping of
        // the shared file page.
        let mut stamped = false;
        for va in region_vas {
            self.probe_sync(kernel);
            if kernel
                .write_virt(pid, va.offset(src_entry * PAGE_SIZE), &MARKER, Access::user_write())
                .is_ok()
            {
                stamped = true;
                break;
            }
        }
        if !stamped {
            return Ok(false);
        }
        let mut probe_va = None;
        for va in region_vas {
            let page_va = va.offset(probe_entry * PAGE_SIZE);
            if page_va == va_pte {
                continue;
            }
            let mut buf = [0u8; 16];
            self.probe_sync(kernel);
            if kernel.read_virt(pid, page_va, &mut buf, Access::user_read()).is_ok()
                && buf == MARKER
            {
                probe_va = Some(page_va);
                break;
            }
        }
        let Some(probe_va) = probe_va else {
            out.note("candidate window did not map one of our regions".to_string());
            return Ok(false);
        };
        out.note(format!("write window established: {va_pte} edits the table serving {probe_va}"));

        // Arbitrary physical read: walk every frame through the window.
        let (secret_pfn, secret) = kernel.kernel_secret();
        for f in 0..max_pfn {
            let probe_pte = Pte::new(cta_mem::Pfn(f), PteFlags::user_data());
            self.probe_sync(kernel);
            kernel.write_virt(
                pid,
                va_pte.offset(probe_entry * 8),
                &probe_pte.0.to_le_bytes(),
                Access::user_write(),
            )?;
            kernel.flush_tlb();
            let mut buf = [0u8; 16];
            if kernel.read_virt(pid, probe_va, &mut buf, Access::user_read()).is_err() {
                continue;
            }
            if buf == secret {
                out.secret_read = true;
                out.note(format!("kernel secret read from frame {f} (truth: {})", secret_pfn.0));
                // Demonstrate the write primitive too.
                self.probe_sync(kernel);
                if kernel
                    .write_virt(pid, probe_va, b"PWNED-BY-ROWHMR!", Access::user_write())
                    .is_ok()
                {
                    out.secret_overwritten = true;
                    out.note("kernel secret overwritten".to_string());
                }
                return Ok(true);
            }
        }
        out.note("frame walk did not locate the secret".to_string());
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_core::verify::verify_system;
    use cta_core::SystemBuilder;
    use cta_dram::DisturbanceParams;

    fn builder(seed: u64, protected: bool) -> SystemBuilder {
        SystemBuilder::new(8 << 20)
            .ptp_bytes(512 * 1024)
            .seed(seed)
            .protected(protected)
            .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
    }

    #[test]
    fn spray_attack_succeeds_on_stock_kernel_for_some_seed() {
        let attack = SprayAttack::default();
        let mut successes = 0;
        for seed in 0..8u64 {
            let mut k = builder(seed, false).build().unwrap();
            let out = attack.run(&mut k).unwrap();
            if out.success() {
                successes += 1;
                assert!(out.self_reference_found);
                assert!(out.flips_induced > 0);
                // Cross-check with the ground-truth verifier: the system
                // really does contain a self-referencing PTE.
                let report = verify_system(&k).unwrap();
                assert!(!report.is_clean());
                // And the secret really was overwritten in DRAM.
                if out.secret_overwritten {
                    let (pfn, _) = k.kernel_secret();
                    let data = k.dram().peek(pfn.addr().0, 16).unwrap();
                    assert_eq!(&data, b"PWNED-BY-ROWHMR!");
                }
            }
        }
        assert!(successes >= 1, "attack should succeed on some module out of 8");
    }

    #[test]
    fn spray_attack_always_fails_under_cta() {
        let attack = SprayAttack::default();
        for seed in 0..8u64 {
            let mut k = builder(seed, true).build().unwrap();
            let out = attack.run(&mut k).unwrap();
            assert!(!out.success(), "seed {seed}: CTA breached:\n{out}");
            // The monotonicity argument is stronger than "no success":
            // no self-reference may even be *found*.
            let report = verify_system(&k).unwrap();
            assert_eq!(report.self_references().count(), 0, "seed {seed}");
        }
    }

    #[test]
    fn spray_attack_reports_flips_even_when_failing() {
        let mut k = builder(3, true).build().unwrap();
        let out = SprayAttack::default().run(&mut k).unwrap();
        // Hammering still flips bits (in data rows) — the defense does not
        // stop RowHammer, it makes it harmless to page tables.
        assert!(out.rows_hammered > 0);
        assert!(!out.log.is_empty());
    }
}
