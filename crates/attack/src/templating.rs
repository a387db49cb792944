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
/// Massage regions are mapped one per 2 MiB slot, starting at the first
/// slot past the arena.
const REGION_SLOT: u64 = 2 << 20;

// The window a usable template can fall in. A flip of bit 12 + k turns a
// PTE naming victim page v into one naming donor page v − 2^k, and `attempt`
// is only tried on a template whose
// - k is in 1..=6, i.e. bits 13..=18 of the word. k = 0 would free adjacent
//   frames (donor next to victim), which the buddy allocator coalesces into
//   a larger block and re-splits in a different order, breaking the massage
//   (the real Drammer has the same constraint in disguise: it works in
//   contiguous chunks);
// - entry is in 1..=400;
// - page satisfies v > 2^k + 2 and entry < (v − 2^k) / 2, so enough
//   non-adjacent filler pages exist below the donor. This one depends on
//   the victim, so `push_usable_templates` checks it per set bit.
/// Bits 13..=18 of a 64-bit word: the frame-field bits a template may flip.
const TEMPLATE_BITS: u64 = 0x7_E000;
/// The last entry slot a template may hit.
const LAST_TEMPLATE_ENTRY: usize = 400;

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
    /// Arena size in pages (the templated region). Massage regions are
    /// mapped in the 2 MiB slots past it.
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
        // Slot index of the last slot the arena touches; `attempt` maps each
        // region one slot further.
        let mut region_slot = arena_bytes.div_ceil(REGION_SLOT).max(1) - 1;
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
                &mut region_slot,
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
    ///
    /// Each victim page is zeroed, hammered from both neighbors and read
    /// back. Only bits 13..=18 of entries 1..=400 can pass `attempt`'s
    /// preconditions (see `TEMPLATE_BITS`), so the read-back is scanned in
    /// that window only; templates come out in ascending victim page, then
    /// ascending bit position.
    fn template(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        arena: VirtAddr,
        out: &mut AttackOutcome,
    ) -> Result<Vec<Template>, VmError> {
        let driver = HammerDriver::new();
        let mut templates = Vec::new();
        let zeros = [0u8; PAGE_SIZE as usize];
        let mut buf = [0u8; PAGE_SIZE as usize];
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
            self.probe_sync(kernel);
            if kernel.read_virt(pid, victim, &mut buf, Access::user_read()).is_err() {
                continue;
            }
            push_usable_templates(&mut templates, v, &buf);
        }
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
        region_slot: &mut u64,
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
        *region_slot += 1;
        let region = region_slot
            .checked_mul(REGION_SLOT)
            .and_then(|offset| offset.checked_add(ARENA_VA))
            .map(VirtAddr)
            .ok_or(VmError::RangeOverflow { va: VirtAddr(ARENA_VA), pages: file_pages })?;
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

/// Appends the templates of victim page `page`, whose `0→1` probe read back
/// `bytes`, that `attempt` can use: set bits of `TEMPLATE_BITS` in entries
/// `1..=LAST_TEMPLATE_ENTRY` whose donor page and fillers fit below `page`,
/// in ascending bit position.
fn push_usable_templates(
    templates: &mut Vec<Template>,
    page: u64,
    bytes: &[u8; PAGE_SIZE as usize],
) {
    // No entry at or past (page − 2) / 2 leaves room for the smallest
    // span, 2.
    let end = (page.saturating_sub(2) / 2).min(LAST_TEMPLATE_ENTRY as u64 + 1) as usize;
    let (words, _) = bytes.as_chunks::<8>();
    for (entry, word) in words.iter().enumerate().take(end).skip(1) {
        let entry = entry as u64;
        let mut bits = u64::from_le_bytes(*word) & TEMPLATE_BITS;
        while bits != 0 {
            let bit_in_word = bits.trailing_zeros();
            bits &= bits - 1;
            let span = 1u64 << (bit_in_word - 12);
            if page > span + 2 && entry < (page - span) / 2 {
                templates.push(Template { page, entry, bit_in_word, sets_bit: true });
            }
        }
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

    /// The collect-then-filter scan `push_usable_templates` replaced: one
    /// template per set bit of the page, then `attempt`'s preconditions.
    fn reference_templates(page: u64, bytes: &[u8]) -> Vec<Template> {
        let mut templates = Vec::new();
        for (byte_idx, byte) in bytes.iter().enumerate() {
            for bit in 0..8u32 {
                if byte >> bit & 1 == 1 {
                    let bitpos = byte_idx as u64 * 8 + bit as u64;
                    let entry = bitpos / 64;
                    let bit_in_word = (bitpos % 64) as u32;
                    templates.push(Template { page, entry, bit_in_word, sets_bit: true });
                }
            }
        }
        templates.retain(|t| {
            if !(12..=51).contains(&t.bit_in_word) || t.entry == 0 || t.entry > 400 {
                return false;
            }
            let k = t.bit_in_word - 12;
            if k == 0 || k >= 7 {
                return false;
            }
            let span = 1u64 << k;
            t.page > span + 2 && t.entry < (t.page - span) / 2
        });
        templates
    }

    fn assert_scan_matches_reference(page: u64, bytes: &[u8; PAGE_SIZE as usize]) {
        let mut got = vec![Template { page: 0, entry: 0, bit_in_word: 0, sets_bit: false }];
        push_usable_templates(&mut got, page, bytes);
        assert_eq!(got.remove(0).page, 0, "appends after what the vector holds");
        assert_eq!(got, reference_templates(page, bytes), "page {page}");
    }

    /// Victim pages on both sides of every `2^k + 2` bound, every
    /// `(page − 2^k) / 2` bound of the hand-set entries, and the arena's
    /// ends.
    fn boundary_pages() -> Vec<u64> {
        let mut pages = vec![0, 1, 2, 3, 4, 5, 190, 191, 510, 511, 900];
        for k in 1..=7u32 {
            let span = 1u64 << k;
            pages.extend([span + 2, span + 3]);
            for entry in [1u64, 2, 100, 399, 400] {
                // entry < (page − span) / 2 first holds at page = 2·entry + 2 + span.
                let first = 2 * entry + 2 + span;
                pages.extend([first - 1, first]);
            }
        }
        pages
    }

    #[test]
    fn window_scan_matches_the_reference_on_edge_pages() {
        let mut pages: Vec<[u8; PAGE_SIZE as usize]> =
            vec![[0; PAGE_SIZE as usize], [0xFF; PAGE_SIZE as usize]];
        for entry in [0usize, 1, 2, 100, 399, 400, 401, 511] {
            let mut page = [0u8; PAGE_SIZE as usize];
            page[entry * 8..entry * 8 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            pages.push(page);
            for bit in [11u32, 12, 13, 18, 19, 51] {
                let mut page = [0u8; PAGE_SIZE as usize];
                page[entry * 8..entry * 8 + 8].copy_from_slice(&(1u64 << bit).to_le_bytes());
                pages.push(page);
            }
        }
        for bytes in &pages {
            for page in boundary_pages() {
                assert_scan_matches_reference(page, bytes);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn window_scan_matches_the_reference_on_random_pages(
            page in 0u64..600,
            words in proptest::collection::vec(
                (proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u64>(), 0u8..3),
                512..513,
            ),
        ) {
            // Each word is dense (half its bits set), sparser (a quarter)
            // or empty.
            let mut bytes = [0u8; PAGE_SIZE as usize];
            for (word, &(a, b, density)) in bytes.chunks_exact_mut(8).zip(&words) {
                let w = match density {
                    0 => a,
                    1 => a & b,
                    _ => 0,
                };
                word.copy_from_slice(&w.to_le_bytes());
            }
            assert_scan_matches_reference(page, &bytes);
            for page in boundary_pages() {
                assert_scan_matches_reference(page, &bytes);
            }
        }
    }

    /// The 16 MiB stock module at `pf = 0.05`, seed 1: dense enough that
    /// the default arena finds hundreds of usable templates.
    fn dense_stock_module() -> Kernel {
        SystemBuilder::new(16 << 20)
            .seed(1)
            .protected(false)
            .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
            .build()
            .unwrap()
    }

    #[test]
    fn default_attack_on_a_dense_stock_module_is_pinned() {
        // The golden recordings find no usable template, so this pins what
        // the scan's result drives: attempts, hammers, flips and contents.
        let mut k = dense_stock_module();
        let out = TemplatingAttack::default().run(&mut k).unwrap();
        assert_eq!(out.log[0], "templating found 341 usable flips");
        assert!(out.self_reference_found);
        assert_eq!(out.flips_induced, 129_690);
        assert_eq!(out.sim_time_ns, 12_259_364_155);
        assert_eq!(k.dram().contents_hash(), 0x698b_299c_0be1_9637);
    }

    #[test]
    fn massage_regions_clear_an_arena_larger_than_one_slot() {
        // Regions once started at the slot after `ARENA_VA` whatever the
        // arena size, so an arena past 512 pages overlapped region 1 and
        // every massage failed silently.
        for pages in [512u64, 513, 600] {
            let mut k = dense_stock_module();
            let out = TemplatingAttack { arena_pages: pages, ..TemplatingAttack::default() }
                .run(&mut k)
                .unwrap();
            assert!(
                out.log
                    .iter()
                    .any(|l| l == "template (page 48, entry 1, bit 16) produced a PTE self-map"),
                "arena of {pages} pages:\n{out}"
            );
        }
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
