use cta_dram::DramModule;
use cta_mem::{PtLevel, PAGE_SIZE};

use crate::addr::VirtAddr;
use crate::error::{TranslateError, VmError};
use crate::pte::Pte;

/// The kind of memory access a walk is performed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The access writes memory.
    pub write: bool,
    /// The access executes in user mode.
    pub user: bool,
}

impl Access {
    /// User-mode read.
    pub fn user_read() -> Self {
        Access { write: false, user: true }
    }

    /// User-mode write.
    pub fn user_write() -> Self {
        Access { write: true, user: true }
    }

    /// Kernel-mode write.
    pub fn kernel_write() -> Self {
        Access { write: true, user: false }
    }
}

/// Result of a successful walk: the physical address plus which entries the
/// hardware consulted (useful for experiments that want to show *why* a
/// translation changed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResult {
    /// The translated physical byte address.
    pub phys: u64,
    /// `(level, entry physical address, entry value)` from root to leaf.
    pub trail: Vec<(PtLevel, u64, Pte)>,
}

/// Where [`Walker::walk_phys`] begins: either the CR3 root or, after a
/// paging-structure-cache hit, a table deeper in the hierarchy with the
/// cached summary of the permissions granted by the skipped levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStart {
    /// First level whose entry the walk reads.
    pub level: PtLevel,
    /// Physical byte address of that level's table.
    pub table: u64,
    /// Every skipped level above `level` granted user access (vacuously
    /// true at CR3).
    pub user: bool,
    /// Every skipped level above `level` granted writes (vacuously true at
    /// CR3).
    pub writable: bool,
}

impl WalkStart {
    /// A full walk from the CR3 root.
    pub fn root(cr3: u64) -> Self {
        WalkStart { level: PtLevel::Pml4, table: cr3, user: true, writable: true }
    }
}

/// Result of an allocation-free walk: the leaf plus the non-leaf entries
/// read on the way down (for paging-structure-cache fills), with no heap
/// trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysWalk {
    /// The translated physical byte address.
    pub phys: u64,
    /// The leaf entry (a PT entry, or a huge PD/PDPT entry).
    pub leaf: Pte,
    /// The level the leaf was found at.
    pub leaf_level: PtLevel,
    /// Non-leaf entries actually read, root-most first; levels skipped by a
    /// [`WalkStart`] resume are absent. Huge leaves never appear here.
    pub intermediates: [Option<(PtLevel, Pte)>; 3],
}

/// The software MMU: a 4-level x86-64 page-table walk over simulated DRAM.
///
/// Walks read each entry with an ordinary DRAM read — page tables have no
/// shadow copy, so disturbance-corrupted entries take effect exactly as they
/// would in hardware. Permission semantics follow x86: an access is allowed
/// only if *every* level grants it (here simplified to checking user/write
/// on each present entry).
#[derive(Debug, Clone, Copy, Default)]
pub struct Walker;

impl Walker {
    /// Creates a walker.
    pub fn new() -> Self {
        Walker
    }

    /// Translates `va` through the hierarchy rooted at physical `cr3`.
    ///
    /// # Errors
    ///
    /// [`VmError::Translate`] on faults; [`VmError::Dram`] only if the walk
    /// itself reads outside the module (a corrupted intermediate entry),
    /// which is reported as [`TranslateError::BadFrame`].
    pub fn walk(
        &self,
        dram: &mut DramModule,
        cr3: u64,
        va: VirtAddr,
        access: Access,
    ) -> Result<WalkResult, VmError> {
        let capacity = dram.capacity_bytes();
        let mut table = cr3;
        let mut trail = Vec::with_capacity(4);
        for level in [PtLevel::Pml4, PtLevel::Pdpt, PtLevel::Pd, PtLevel::Pt] {
            let entry_addr = table + va.index(level) * 8;
            if entry_addr + 8 > capacity {
                return Err(TranslateError::BadFrame { va, level, pfn: table / PAGE_SIZE }.into());
            }
            let pte = Pte(dram.read_u64(entry_addr)?);
            trail.push((level, entry_addr, pte));
            if !pte.present() {
                return Err(TranslateError::NotPresent { va, level }.into());
            }
            if access.user && !pte.user() {
                return Err(TranslateError::Protection {
                    va,
                    level,
                    write: access.write,
                    user: access.user,
                }
                .into());
            }
            if access.write && !pte.writable() {
                return Err(TranslateError::Protection {
                    va,
                    level,
                    write: access.write,
                    user: access.user,
                }
                .into());
            }
            let target = pte.pfn().0 * PAGE_SIZE;
            let is_leaf = level == PtLevel::Pt
                || (pte.huge() && matches!(level, PtLevel::Pd | PtLevel::Pdpt));
            if is_leaf {
                let phys = target + va.huge_offset(level);
                if phys >= capacity {
                    return Err(TranslateError::BadFrame { va, level, pfn: pte.pfn().0 }.into());
                }
                return Ok(WalkResult { phys, trail });
            }
            if target + PAGE_SIZE > capacity {
                return Err(TranslateError::BadFrame { va, level, pfn: pte.pfn().0 }.into());
            }
            table = target;
        }
        unreachable!("the PT level always terminates the loop");
    }

    /// The allocation-free hot-path walk: translates `va` starting from
    /// `start` (the CR3 root, or a paging-structure-cache resume point)
    /// without building a trail `Vec`.
    ///
    /// From [`WalkStart::root`] this reads exactly the same DRAM sequence as
    /// [`walk`](Walker::walk) and enforces the same per-level permission
    /// checks; a mid-hierarchy `start` additionally checks the access
    /// against the cached permission summary of the skipped levels.
    ///
    /// # Errors
    ///
    /// Same contract as [`walk`](Walker::walk); a denial by the skipped
    /// levels' summary is reported as a [`TranslateError::Protection`] at
    /// `start.level`.
    pub fn walk_phys(
        &self,
        dram: &mut DramModule,
        start: WalkStart,
        va: VirtAddr,
        access: Access,
    ) -> Result<PhysWalk, VmError> {
        if (access.user && !start.user) || (access.write && !start.writable) {
            return Err(TranslateError::Protection {
                va,
                level: start.level,
                write: access.write,
                user: access.user,
            }
            .into());
        }
        let capacity = dram.capacity_bytes();
        let mut table = start.table;
        let mut intermediates: [Option<(PtLevel, Pte)>; 3] = [None; 3];
        let levels: &[PtLevel] = match start.level {
            PtLevel::Pml4 => &[PtLevel::Pml4, PtLevel::Pdpt, PtLevel::Pd, PtLevel::Pt],
            PtLevel::Pdpt => &[PtLevel::Pdpt, PtLevel::Pd, PtLevel::Pt],
            PtLevel::Pd => &[PtLevel::Pd, PtLevel::Pt],
            PtLevel::Pt => &[PtLevel::Pt],
        };
        for (filled, &level) in levels.iter().enumerate() {
            let entry_addr = table + va.index(level) * 8;
            if entry_addr + 8 > capacity {
                return Err(TranslateError::BadFrame { va, level, pfn: table / PAGE_SIZE }.into());
            }
            let pte = Pte(dram.read_u64(entry_addr)?);
            if !pte.present() {
                return Err(TranslateError::NotPresent { va, level }.into());
            }
            if (access.user && !pte.user()) || (access.write && !pte.writable()) {
                return Err(TranslateError::Protection {
                    va,
                    level,
                    write: access.write,
                    user: access.user,
                }
                .into());
            }
            let target = pte.pfn().0 * PAGE_SIZE;
            let is_leaf = level == PtLevel::Pt
                || (pte.huge() && matches!(level, PtLevel::Pd | PtLevel::Pdpt));
            if is_leaf {
                let phys = target + va.huge_offset(level);
                if phys >= capacity {
                    return Err(TranslateError::BadFrame { va, level, pfn: pte.pfn().0 }.into());
                }
                return Ok(PhysWalk { phys, leaf: pte, leaf_level: level, intermediates });
            }
            if target + PAGE_SIZE > capacity {
                return Err(TranslateError::BadFrame { va, level, pfn: pte.pfn().0 }.into());
            }
            intermediates[filled] = Some((level, pte));
            table = target;
        }
        unreachable!("the PT level always terminates the loop");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use cta_dram::DramConfig;
    use cta_mem::Pfn;

    /// Hand-builds a 4-level hierarchy in DRAM mapping `va` → `frame`.
    fn build_mapping(dram: &mut DramModule, cr3: u64, va: VirtAddr, frame: Pfn, flags: PteFlags) {
        let mut table = cr3;
        for level in [PtLevel::Pml4, PtLevel::Pdpt, PtLevel::Pd] {
            let entry_addr = table + va.index(level) * 8;
            let existing = Pte(dram.peek_u64(entry_addr).unwrap());
            let next = if existing.present() {
                existing.pfn().0 * PAGE_SIZE
            } else {
                let next = table + 0x4000; // park tables 4 pages apart
                dram.write_u64(entry_addr, Pte::new(Pfn(next / PAGE_SIZE), PteFlags::table()).0)
                    .unwrap();
                next
            };
            table = next;
        }
        let leaf_addr = table + va.index(PtLevel::Pt) * 8;
        dram.write_u64(leaf_addr, Pte::new(frame, flags).0).unwrap();
    }

    fn setup() -> (DramModule, u64) {
        (DramModule::new(DramConfig::small_test()), 0x1000)
    }

    #[test]
    fn walk_resolves_built_mapping() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x1234_5678);
        build_mapping(&mut dram, cr3, va, Pfn(40), PteFlags::user_data());
        let r = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        assert_eq!(r.phys, 40 * PAGE_SIZE + va.page_offset());
        assert_eq!(r.trail.len(), 4);
        assert_eq!(r.trail[3].0, PtLevel::Pt);
    }

    #[test]
    fn walk_faults_on_missing_entry() {
        let (mut dram, cr3) = setup();
        let err = Walker::new().walk(&mut dram, cr3, VirtAddr(0x9999), Access::user_read());
        assert!(matches!(
            err,
            Err(VmError::Translate(TranslateError::NotPresent { level: PtLevel::Pml4, .. }))
        ));
    }

    #[test]
    fn user_cannot_touch_kernel_pages() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x5000);
        build_mapping(&mut dram, cr3, va, Pfn(41), PteFlags::kernel_data());
        let err = Walker::new().walk(&mut dram, cr3, va, Access::user_read());
        assert!(matches!(
            err,
            Err(VmError::Translate(TranslateError::Protection { user: true, .. }))
        ));
        // Kernel access succeeds.
        Walker::new().walk(&mut dram, cr3, va, Access::kernel_write()).unwrap();
    }

    #[test]
    fn write_to_readonly_faults() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x7000);
        build_mapping(&mut dram, cr3, va, Pfn(42), PteFlags::user_readonly());
        Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        let err = Walker::new().walk(&mut dram, cr3, va, Access::user_write());
        assert!(matches!(
            err,
            Err(VmError::Translate(TranslateError::Protection { write: true, .. }))
        ));
    }

    #[test]
    fn corrupted_entry_to_out_of_range_frame_is_bad_frame() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0xA000);
        build_mapping(&mut dram, cr3, va, Pfn(1 << 30), PteFlags::user_data());
        let err = Walker::new().walk(&mut dram, cr3, va, Access::user_read());
        assert!(matches!(err, Err(VmError::Translate(TranslateError::BadFrame { .. }))));
    }

    #[test]
    fn huge_page_terminates_at_pd() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x40_0000 + 0x1234); // PD index 2, offset 0x1234
                                               // Build PML4 + PDPT, then a huge PD entry.
        let mut table = cr3;
        for level in [PtLevel::Pml4, PtLevel::Pdpt] {
            let entry_addr = table + va.index(level) * 8;
            let next = table + 0x4000;
            dram.write_u64(entry_addr, Pte::new(Pfn(next / PAGE_SIZE), PteFlags::table()).0)
                .unwrap();
            table = next;
        }
        let pd_entry = table + va.index(PtLevel::Pd) * 8;
        let flags = PteFlags { huge: true, ..PteFlags::user_data() };
        dram.write_u64(pd_entry, Pte::new(Pfn(0), flags).0).unwrap();
        let r = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        assert_eq!(r.phys, va.huge_offset(PtLevel::Pd));
        assert_eq!(r.trail.len(), 3, "walk stops at the huge PD entry");
    }

    #[test]
    fn walk_reads_live_dram_so_corruption_changes_translation() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0xB000);
        build_mapping(&mut dram, cr3, va, Pfn(43), PteFlags::user_data());
        let r1 = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        // Corrupt the leaf PTE directly in DRAM (simulating a bit flip).
        let (_, leaf_addr, leaf) = r1.trail[3];
        dram.write_u64(leaf_addr, leaf.with_pfn(Pfn(7)).0).unwrap();
        let r2 = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        assert_eq!(r2.phys, 7 * PAGE_SIZE + va.page_offset());
        assert_ne!(r1.phys, r2.phys);
        // Now corrupt the *PDE*: redirect the region's page table wholesale
        // to a hand-crafted one. The walker caches nothing, so the very next
        // walk follows the flipped pointer.
        let (_, pde_addr, pde) = r2.trail[2];
        let fake_pt = 0x3C000u64;
        dram.write_u64(
            fake_pt + va.index(PtLevel::Pt) * 8,
            Pte::new(Pfn(9), PteFlags::user_data()).0,
        )
        .unwrap();
        dram.write_u64(pde_addr, pde.with_pfn(Pfn(fake_pt / PAGE_SIZE)).0).unwrap();
        let r3 = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        assert_eq!(r3.phys, 9 * PAGE_SIZE + va.page_offset());
    }

    #[test]
    fn walk_phys_matches_walk_from_root() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x1234_5678);
        build_mapping(&mut dram, cr3, va, Pfn(40), PteFlags::user_data());
        let r = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        let p = Walker::new()
            .walk_phys(&mut dram, WalkStart::root(cr3), va, Access::user_read())
            .unwrap();
        assert_eq!(p.phys, r.phys);
        assert_eq!(p.leaf, r.trail[3].2);
        assert_eq!(p.leaf_level, PtLevel::Pt);
        let inter: Vec<(PtLevel, Pte)> = p.intermediates.into_iter().flatten().collect();
        let trail_inter: Vec<(PtLevel, Pte)> =
            r.trail[..3].iter().map(|&(l, _, e)| (l, e)).collect();
        assert_eq!(inter, trail_inter);
    }

    #[test]
    fn walk_phys_resumes_mid_hierarchy() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x1234_5678);
        build_mapping(&mut dram, cr3, va, Pfn(40), PteFlags::user_data());
        let r = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        // Resume at the PD table (the PDPT entry's target), as a PDPTE-cache
        // hit would.
        let pd_table = r.trail[1].2.pfn().0 * PAGE_SIZE;
        let start = WalkStart { level: PtLevel::Pd, table: pd_table, user: true, writable: true };
        let reads_before = dram.stats().reads;
        let p = Walker::new().walk_phys(&mut dram, start, va, Access::user_read()).unwrap();
        assert_eq!(dram.stats().reads - reads_before, 2, "only the PDE and the leaf are read");
        assert_eq!(p.phys, r.phys);
        let inter: Vec<(PtLevel, Pte)> = p.intermediates.into_iter().flatten().collect();
        assert_eq!(inter, vec![(PtLevel::Pd, r.trail[2].2)], "skipped levels are absent");
    }

    #[test]
    fn walk_phys_enforces_the_skipped_levels_permission_summary() {
        let (mut dram, cr3) = setup();
        let va = VirtAddr(0x1234_5678);
        build_mapping(&mut dram, cr3, va, Pfn(40), PteFlags::user_data());
        let r = Walker::new().walk(&mut dram, cr3, va, Access::user_read()).unwrap();
        let pd_table = r.trail[1].2.pfn().0 * PAGE_SIZE;
        // A cached summary that denies user access must fault before any
        // DRAM read, as if an upper level had denied it.
        let start = WalkStart { level: PtLevel::Pd, table: pd_table, user: false, writable: true };
        let err = Walker::new().walk_phys(&mut dram, start, va, Access::user_read());
        assert!(matches!(
            err,
            Err(VmError::Translate(TranslateError::Protection {
                level: PtLevel::Pd,
                user: true,
                ..
            }))
        ));
    }
}
