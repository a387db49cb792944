//! The No Self-Reference verifier.
//!
//! Two complementary checks:
//!
//! 1. [`verify_system`] inspects a **live kernel**: every page-table page
//!    must sit above the low water mark in a true-cell row (system
//!    invariants 1–2 of section 4), every leaf PTE must point below the
//!    mark, and no PTE — corrupted or not — may point at a page-table page
//!    of the same process (the PTE self-reference property the attacks
//!    need).
//! 2. [`check_theorem_exhaustive`] machine-checks the No Self-Reference
//!    Theorem on a small model: for every pointer value below the mark and
//!    every subset of `1→0` flips, the corrupted pointer stays below the
//!    mark.

use cta_dram::CellType;
use cta_mem::PtLevel;
#[cfg(test)]
use cta_mem::PAGE_SIZE;
use cta_vm::{FrameOwner, Kernel, Pid, PteRecord, VmError};

fn level_child(level: PtLevel) -> Option<PtLevel> {
    match level {
        PtLevel::Pml4 => Some(PtLevel::Pdpt),
        PtLevel::Pdpt => Some(PtLevel::Pd),
        PtLevel::Pd => Some(PtLevel::Pt),
        PtLevel::Pt => None,
    }
}

use crate::mono::MonotonicValue;

/// A single invariant violation found in a live system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A page-table page lives below the low water mark (invariant 1).
    PtBelowMark {
        /// Owning process.
        pid: Pid,
        /// The offending frame's byte address.
        addr: u64,
        /// Level of the table.
        level: PtLevel,
    },
    /// A page-table page sits in an anti-cell row (invariant 2).
    PtInAntiCells {
        /// Owning process.
        pid: Pid,
        /// The offending frame's byte address.
        addr: u64,
    },
    /// A leaf PTE points above the mark (data must live below it).
    LeafAboveMark {
        /// Owning process.
        pid: Pid,
        /// Physical address of the PTE.
        entry_addr: u64,
        /// Where it points.
        target_addr: u64,
    },
    /// A PTE (any level) points at a page-table page of the same process —
    /// the self-reference property: an attack has succeeded or is armed.
    SelfReference {
        /// Owning process.
        pid: Pid,
        /// Physical address of the PTE.
        entry_addr: u64,
        /// The page-table frame it (illegally) references.
        target_addr: u64,
        /// Level of the referencing entry.
        level: PtLevel,
    },
    /// A non-leaf entry no longer points at its child-level table: the
    /// pointer was corrupted. The paper's footnote 2 argues these are not
    /// *directly* exploitable under CTA (a monotone-corrupted intermediate
    /// pointer stays in kernel-only territory for targets above the mark),
    /// but we flag and count them — targets below the mark would expose a
    /// fake-hierarchy hazard.
    IntermediateRedirect {
        /// Owning process.
        pid: Pid,
        /// Physical address of the corrupted entry.
        entry_addr: u64,
        /// Where it points now.
        target_addr: u64,
        /// Level of the entry.
        level: PtLevel,
        /// The redirected target is below the low water mark (user-reachable
        /// memory — the dangerous case).
        target_below_mark: bool,
    },
}

/// Outcome of verifying a live system.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All violations found, across processes.
    pub violations: Vec<Violation>,
    /// Number of PTEs inspected.
    pub entries_checked: u64,
    /// Number of page-table pages inspected.
    pub pt_pages_checked: u64,
}

impl VerifyReport {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The self-reference violations only (attack successes).
    pub fn self_references(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| matches!(v, Violation::SelfReference { .. }))
    }

    /// The corrupted-intermediate-entry observations.
    pub fn intermediate_redirects(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| matches!(v, Violation::IntermediateRedirect { .. }))
    }
}

/// Verifies the CTA invariants and the absence of PTE self-references on a
/// live kernel.
///
/// On a stock (unprotected) kernel the placement invariants are skipped —
/// there is no mark — but self-reference detection still runs, which is how
/// attack experiments score success.
///
/// # Errors
///
/// Propagates kernel introspection errors.
pub fn verify_system(kernel: &Kernel) -> Result<VerifyReport, VmError> {
    let mut report = VerifyReport::default();
    let layout = kernel.ptp_layout().cloned();
    for pid in kernel.pids() {
        let proc = kernel.process(pid)?;
        // Invariants 1–2: placement of the PT pages themselves.
        for (pfn, level) in proc.pt_pages() {
            report.pt_pages_checked += 1;
            let addr = pfn.addr().0;
            if let Some(layout) = &layout {
                if addr < layout.low_water_mark() {
                    report.violations.push(Violation::PtBelowMark { pid, addr, level: *level });
                }
                let row = kernel.dram().geometry().row_of_addr(addr)?;
                if kernel.dram().cell_type_of_row(row)? != CellType::True {
                    report.violations.push(Violation::PtInAntiCells { pid, addr });
                }
            }
        }
        // Entry-level checks.
        let pt_frames: std::collections::HashSet<u64> =
            proc.pt_pages().iter().map(|(pfn, _)| pfn.0).collect();
        for PteRecord { level, entry_addr, pte, .. } in kernel.iter_pt_entries_exhaustive(pid)? {
            report.entries_checked += 1;
            let target_addr = pte.pfn().addr().0;
            let is_leaf = level == PtLevel::Pt || pte.huge();
            if is_leaf {
                if let Some(layout) = &layout {
                    if target_addr >= layout.low_water_mark() {
                        report.violations.push(Violation::LeafAboveMark {
                            pid,
                            entry_addr,
                            target_addr,
                        });
                    }
                }
            } else {
                // Intermediate entry: must point at this process's
                // child-level table; anything else is a corrupted redirect.
                let expected_child = level_child(level);
                let ok = matches!(
                    kernel.frame_owner(pte.pfn()),
                    Some(FrameOwner::PageTable { pid: p, level: l })
                        if p == pid && Some(l) == expected_child
                );
                if !ok {
                    let target_below_mark =
                        layout.as_ref().map(|l| target_addr < l.low_water_mark()).unwrap_or(false);
                    report.violations.push(Violation::IntermediateRedirect {
                        pid,
                        entry_addr,
                        target_addr,
                        level,
                        target_below_mark,
                    });
                }
            }
            // Self-reference: a *user-reachable* entry pointing at one of
            // the process's own PT frames. Intermediate entries legally
            // point at PT frames — that is the hierarchy — so only leaf
            // entries count.
            if is_leaf && pt_frames.contains(&pte.pfn().0) {
                report.violations.push(Violation::SelfReference {
                    pid,
                    entry_addr,
                    target_addr,
                    level,
                });
            }
        }
    }
    Ok(report)
}

/// Whether an attacker that has corrupted leaf PTEs can now *write* a
/// page-table page: the operational privilege-escalation test used by the
/// attack crate after hammering.
///
/// Scans `pid`'s leaf PTEs for writable user entries pointing at any
/// page-table frame of any process.
///
/// # Errors
///
/// Propagates kernel introspection errors.
pub fn escalation_armed(kernel: &Kernel, pid: Pid) -> Result<bool, VmError> {
    for record in kernel.iter_pt_entries(pid)? {
        let is_leaf = record.level == PtLevel::Pt || record.pte.huge();
        if !is_leaf || !record.pte.user() || !record.pte.writable() {
            continue;
        }
        if matches!(kernel.frame_owner(record.pte.pfn()), Some(FrameOwner::PageTable { .. })) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Exhaustively machine-checks the No Self-Reference Theorem on a small
/// model: an address space of `2^addr_bits` bytes with the mark at
/// `mark`. For **every** pointer `p < mark` and **every** subset of `1→0`
/// flips (all `2^popcount(p)` of them), the corrupted value stays `< mark`.
///
/// Returns the number of (pointer, corruption) pairs checked.
///
/// # Panics
///
/// Panics if `addr_bits > 16` (the check is exponential; the theorem is
/// bit-width-independent, so a small model suffices).
pub fn check_theorem_exhaustive(addr_bits: u32, mark: u64) -> u64 {
    assert!(addr_bits <= 16, "exhaustive model limited to 16 bits");
    let space = 1u64 << addr_bits;
    assert!(mark <= space);
    let mut checked = 0u64;
    for p in 0..mark {
        // Enumerate all submasks of p: every reachable 1→0 corruption.
        let mut sub = p;
        loop {
            debug_assert!(MonotonicValue::new(p, CellType::True).may_become(sub));
            assert!(sub < mark, "theorem violated: {p:#x} corrupted to {sub:#x} >= {mark:#x}");
            checked += 1;
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & p;
        }
    }
    checked
}

/// The anti-cell counterexample: with `0→1` flips the theorem is *false* —
/// returns a witness `(p, corrupted)` with `p < mark ≤ corrupted` if one
/// exists, demonstrating why `ZONE_PTP` must be true-cells (section 5's
/// anti-cell baseline).
pub fn anti_cell_counterexample(addr_bits: u32, mark: u64) -> Option<(u64, u64)> {
    let space = 1u64 << addr_bits;
    (0..mark).find_map(|p| {
        let corrupted = p | (space - 1) & !(mark - 1); // set high bits
        let m = MonotonicValue::new(p, CellType::Anti);
        let candidate = corrupted | p;
        if m.may_become(candidate) && candidate >= mark {
            Some((p, candidate))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use cta_vm::VirtAddr;

    #[test]
    fn clean_cta_system_verifies() {
        let mut k = SystemBuilder::small_test().protected(true).build().unwrap();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x40_0000), 8 * PAGE_SIZE, true).unwrap();
        let report = verify_system(&k).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.entries_checked > 0);
        assert!(report.pt_pages_checked >= 4);
    }

    #[test]
    fn stock_system_verifies_clean_before_attack() {
        let mut k = SystemBuilder::small_test().protected(false).build().unwrap();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x40_0000), 4 * PAGE_SIZE, true).unwrap();
        let report = verify_system(&k).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn planted_self_reference_is_detected() {
        let mut k = SystemBuilder::small_test().protected(false).build().unwrap();
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x40_0000);
        k.mmap_anonymous(pid, va, PAGE_SIZE, true).unwrap();
        // Corrupt the leaf PTE to point at the process's own PT page —
        // exactly what a successful RowHammer attack achieves.
        let pt_frame =
            k.process(pid).unwrap().pt_pages().iter().find(|(_, l)| *l == PtLevel::Pt).unwrap().0;
        let records = k.iter_pt_entries(pid).unwrap();
        let leaf = records.iter().find(|r| r.level == PtLevel::Pt).unwrap();
        let corrupted = leaf.pte.with_pfn(pt_frame);
        k.dram_mut().write_u64(leaf.entry_addr, corrupted.0).unwrap();
        let report = verify_system(&k).unwrap();
        assert_eq!(report.self_references().count(), 1);
        assert!(escalation_armed(&k, pid).unwrap());
    }

    #[test]
    fn escalation_not_armed_on_clean_system() {
        let mut k = SystemBuilder::small_test().protected(true).build().unwrap();
        let pid = k.create_process(false).unwrap();
        k.mmap_anonymous(pid, VirtAddr(0x40_0000), 2 * PAGE_SIZE, true).unwrap();
        assert!(!escalation_armed(&k, pid).unwrap());
    }

    #[test]
    fn theorem_holds_exhaustively() {
        // 12-bit model, mark at 0xC00: every (p, corruption) pair checked.
        let checked = check_theorem_exhaustive(12, 0xC00);
        assert!(checked > 100_000, "checked {checked}");
    }

    #[test]
    fn theorem_holds_for_various_marks() {
        for mark in [1u64, 2, 0x10, 0x7F, 0x80, 0xFF, 0x100] {
            check_theorem_exhaustive(8, mark);
        }
    }

    #[test]
    fn anti_cells_break_the_theorem() {
        let witness = anti_cell_counterexample(12, 0xC00);
        let (p, corrupted) = witness.expect("anti-cells must admit a counterexample");
        assert!(p < 0xC00);
        assert!(corrupted >= 0xC00);
    }
}
