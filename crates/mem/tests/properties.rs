//! Property-based tests of the allocator's core invariants.

use std::collections::HashSet;

use cta_dram::{AddressMapping, CellLayout, CellType, CellTypeMap, DramGeometry};
use cta_mem::{
    AllocError, BuddyAllocator, GfpFlags, MemoryMap, Pfn, PtpLayout, PtpSpec, ZonedAllocator,
    PAGE_SIZE,
};
use proptest::prelude::*;

/// A random interleaving of allocs and frees, as (order, free-index) pairs.
fn ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..5, 0usize..8), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Live buddy blocks never overlap, and the free-page count is exact.
    #[test]
    fn buddy_blocks_never_overlap(ops in ops()) {
        let total = 256u64;
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(total)).unwrap();
        let mut live: Vec<(Pfn, u8)> = Vec::new();
        for (order, idx) in ops {
            if idx % 3 == 0 && !live.is_empty() {
                let (p, o) = live.swap_remove(idx % live.len());
                b.free(p, o).unwrap();
            } else if let Ok(p) = b.alloc(order) {
                live.push((p, order));
            }
            // Invariants after every step:
            let mut frames = HashSet::new();
            let mut used = 0u64;
            for (p, o) in &live {
                for f in p.0..p.0 + (1u64 << o) {
                    prop_assert!(frames.insert(f), "frame {f} doubly owned");
                    prop_assert!(f < total);
                }
                used += 1u64 << o;
            }
            prop_assert_eq!(b.free_pages(), total - used);
        }
        for (p, o) in live {
            b.free(p, o).unwrap();
        }
        prop_assert_eq!(b.free_pages(), total);
        prop_assert_eq!(b.allocated_blocks(), 0);
    }

    /// Freeing everything always coalesces back to the pristine state.
    #[test]
    fn buddy_free_all_restores_pristine(orders in proptest::collection::vec(0u8..6, 1..40)) {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(512)).unwrap();
        let pristine = b.clone();
        let mut live = Vec::new();
        for o in orders {
            if let Ok(p) = b.alloc(o) {
                live.push((p, o));
            }
        }
        for (p, o) in live.into_iter().rev() {
            b.free(p, o).unwrap();
        }
        prop_assert_eq!(b, pristine);
    }

    /// Under CTA, no ordinary allocation ever lands at or above the low
    /// water mark, and no PTP allocation ever lands below it — for any
    /// alternation period and PTP size.
    #[test]
    fn low_water_mark_separates_allocations(
        period in prop_oneof![Just(64u64), Just(128), Just(256)],
        ptp_mb in prop_oneof![Just(2u64), Just(4), Just(8)],
        ops in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let total = 64u64 << 20;
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let cells = CellTypeMap::from_layout(
            &g,
            CellLayout::Alternating { period_rows: period, first: CellType::True },
        );
        let layout = PtpLayout::build(
            &cells,
            total,
            &PtpSpec::paper_default().with_size(ptp_mb << 20),
        )
        .unwrap();
        let mark = layout.low_water_mark();
        let mut a = ZonedAllocator::new(MemoryMap::x86_64(total).with_cta(layout)).unwrap();
        for want_ptp in ops {
            let gfp = if want_ptp { GfpFlags::PTP } else { GfpFlags::HIGHUSER };
            match a.alloc_pages(gfp, 0) {
                Ok(p) => {
                    let addr = p.addr().0;
                    if want_ptp {
                        prop_assert!(addr >= mark, "PTP page {addr:#x} below mark {mark:#x}");
                    } else {
                        prop_assert!(addr < mark, "user page {addr:#x} above mark {mark:#x}");
                    }
                }
                Err(AllocError::OutOfMemory { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            }
        }
    }

    /// PTP sub-zones are exactly the true-cell rows above the mark: every
    /// PTP allocation lands in a true-cell row.
    #[test]
    fn ptp_pages_are_true_cells(period in prop_oneof![Just(64u64), Just(128)], seed in any::<u64>()) {
        let _ = seed;
        let total = 64u64 << 20;
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let layout_cells = CellLayout::Alternating { period_rows: period, first: CellType::True };
        let cells = CellTypeMap::from_layout(&g, layout_cells);
        let ptp = PtpLayout::build(&cells, total, &PtpSpec::paper_default().with_size(4 << 20))
            .unwrap();
        let mut a = ZonedAllocator::new(MemoryMap::x86_64(total).with_cta(ptp)).unwrap();
        for _ in 0..64 {
            let Ok(p) = a.alloc_pages(GfpFlags::PTP, 0) else { break };
            let row = cta_dram::RowId(p.addr().0 / (64 * 1024));
            prop_assert_eq!(layout_cells.cell_type(row), CellType::True);
        }
    }

    /// Allocator conservation: pages out + pages free == total, always.
    #[test]
    fn page_conservation(ops in proptest::collection::vec((any::<bool>(), 0u8..4), 1..80)) {
        let total_bytes = 32u64 << 20;
        let mut a = ZonedAllocator::new(MemoryMap::x86_64(total_bytes)).unwrap();
        let total_pages = total_bytes / PAGE_SIZE;
        let mut live: Vec<(Pfn, u8)> = Vec::new();
        for (do_free, order) in ops {
            if do_free && !live.is_empty() {
                let (p, o) = live.pop().unwrap();
                a.free_pages(p, o).unwrap();
            } else if let Ok(p) = a.alloc_pages(GfpFlags::KERNEL, order) {
                live.push((p, order));
            }
            let out: u64 = live.iter().map(|(_, o)| 1u64 << o).sum();
            prop_assert_eq!(a.free_page_count() + out, total_pages);
        }
    }
}
