use std::fmt;
use std::ops::Range;

use cta_dram::CellTypeMap;

use crate::error::AllocError;
use crate::frame::PAGE_SIZE;

/// x86-64 page-table levels, leaf first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PtLevel {
    /// Level-1 page table (PTEs mapping 4 KiB pages).
    Pt,
    /// Level-2 page directory.
    Pd,
    /// Level-3 page-directory-pointer table.
    Pdpt,
    /// Level-4 root.
    Pml4,
}

impl PtLevel {
    /// All levels, leaf first.
    pub const ALL: [PtLevel; 4] = [PtLevel::Pt, PtLevel::Pd, PtLevel::Pdpt, PtLevel::Pml4];

    /// 1-based level number (PT=1 … PML4=4).
    pub fn number(self) -> u8 {
        match self {
            PtLevel::Pt => 1,
            PtLevel::Pd => 2,
            PtLevel::Pdpt => 3,
            PtLevel::Pml4 => 4,
        }
    }

    /// The next level up, if any.
    pub fn parent(self) -> Option<PtLevel> {
        match self {
            PtLevel::Pt => Some(PtLevel::Pd),
            PtLevel::Pd => Some(PtLevel::Pdpt),
            PtLevel::Pdpt => Some(PtLevel::Pml4),
            PtLevel::Pml4 => None,
        }
    }
}

impl fmt::Display for PtLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PtLevel::Pt => "PT",
            PtLevel::Pd => "PD",
            PtLevel::Pdpt => "PDPT",
            PtLevel::Pml4 => "PML4",
        };
        f.write_str(s)
    }
}

/// Requested shape of `ZONE_PTP`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtpSpec {
    /// True-cell bytes to dedicate to page tables (the paper evaluates
    /// 32 MiB and 64 MiB). Must be a power of two and a multiple of
    /// [`PAGE_SIZE`].
    pub ptp_bytes: u64,
    /// Give each page-table level its own sub-zone, higher levels at higher
    /// addresses (section 7 extension). With `false`, one zone serves all
    /// levels (the paper's base design).
    pub multi_level: bool,
    /// Reserve physical stripes whose PTP-indicator has fewer than two `0`s
    /// for trusted allocations only, which drives the expected number of
    /// exploitable PTEs from ~6.7 down to ~4.7×10⁻⁶ (section 5).
    pub restrict_two_zeros: bool,
}

impl PtpSpec {
    /// The paper's default evaluation configuration: 32 MiB, single level,
    /// no indicator restriction.
    pub fn paper_default() -> Self {
        PtpSpec { ptp_bytes: 32 << 20, multi_level: false, restrict_two_zeros: false }
    }

    /// Builder-style size override.
    pub fn with_size(mut self, ptp_bytes: u64) -> Self {
        self.ptp_bytes = ptp_bytes;
        self
    }

    /// Builder-style multi-level toggle.
    pub fn with_multi_level(mut self, multi_level: bool) -> Self {
        self.multi_level = multi_level;
        self
    }

    /// Builder-style two-zeros restriction toggle.
    pub fn with_two_zeros_restriction(mut self, restrict: bool) -> Self {
        self.restrict_two_zeros = restrict;
        self
    }
}

/// A concrete `ZONE_PTP` placement computed from a cell-type map.
///
/// The layout walks true-cell regions from the **top** of physical memory
/// downwards, collecting `ptp_bytes` of true-cell capacity for page tables
/// and recording every anti-cell region passed over as *reserved* (unused —
/// the section 6.2 capacity loss). The **low water mark** is the lowest
/// address so touched: everything at or above it belongs to `ZONE_PTP`
/// (usable true-cell sub-zones + reserved anti-cell holes); everything below
/// is ordinary memory.
#[derive(Debug, PartialEq, Eq)]
pub struct PtpLayout {
    subzones: Vec<(Range<u64>, Option<PtLevel>)>,
    reserved_anti: Vec<Range<u64>>,
    low_water_mark: u64,
    total_bytes: u64,
    ptp_bytes: u64,
    trusted_ranges: Vec<Range<u64>>,
    screened_pages: Vec<u64>,
}

cta_dram::clone_fields!(PtpLayout {
    subzones,
    reserved_anti,
    low_water_mark,
    total_bytes,
    ptp_bytes,
    trusted_ranges,
    screened_pages,
});

impl PtpLayout {
    /// Computes the layout for a module whose cell types are `map`.
    ///
    /// `total_bytes` is the physical memory size (a power of two).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadPtpSize`] unless `total_bytes` and `ptp_bytes` are
    /// page-aligned powers of two with `ptp_bytes < total_bytes`;
    /// [`AllocError::InsufficientTrueCells`] if the map does not contain
    /// `ptp_bytes` of true-cell capacity.
    pub fn build(map: &CellTypeMap, total_bytes: u64, spec: &PtpSpec) -> Result<Self, AllocError> {
        let page_aligned_power = |bytes: u64| bytes.is_power_of_two() && bytes >= PAGE_SIZE;
        let reason = if !page_aligned_power(total_bytes) {
            Some("memory size must be a page-aligned power of two")
        } else if !page_aligned_power(spec.ptp_bytes) {
            Some("ZONE_PTP size must be a page-aligned power of two")
        } else if spec.ptp_bytes >= total_bytes {
            Some("ZONE_PTP must be smaller than memory")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(AllocError::BadPtpSize { ptp_bytes: spec.ptp_bytes, total_bytes, reason });
        }

        // Walk true-cell regions from the top down, collecting capacity.
        let mut needed = spec.ptp_bytes;
        let mut true_chunks: Vec<Range<u64>> = Vec::new(); // descending
        let mut reserved_anti: Vec<Range<u64>> = Vec::new();
        let mut regions = map.regions();
        regions.retain(|r| (r.start_row.0 * map.row_bytes()) < total_bytes);
        for region in regions.iter().rev() {
            if needed == 0 {
                break;
            }
            let start = region.start_row.0 * map.row_bytes();
            let end = (region.end_row.0 * map.row_bytes()).min(total_bytes);
            match region.cell_type {
                cta_dram::CellType::Anti => reserved_anti.push(start..end),
                cta_dram::CellType::True => {
                    let take = needed.min(end - start);
                    true_chunks.push(end - take..end);
                    needed -= take;
                }
            }
        }
        if needed > 0 {
            return Err(AllocError::InsufficientTrueCells {
                requested: spec.ptp_bytes,
                available: spec.ptp_bytes - needed,
            });
        }
        let low_water_mark = true_chunks.last().expect("needed > 0 handled").start;
        // Anti regions collected below the mark are not actually inside the
        // zone; drop them.
        reserved_anti.retain(|r| r.start >= low_water_mark);
        reserved_anti.reverse(); // ascending
        true_chunks.reverse(); // ascending

        let subzones = if spec.multi_level {
            Self::split_levels(&true_chunks, spec.ptp_bytes)
        } else {
            true_chunks.iter().cloned().map(|r| (r, None)).collect()
        };

        let trusted_ranges = if spec.restrict_two_zeros {
            Self::one_zero_stripes(total_bytes, spec.ptp_bytes, low_water_mark)
        } else {
            Vec::new()
        };

        Ok(PtpLayout {
            subzones,
            reserved_anti,
            low_water_mark,
            total_bytes,
            ptp_bytes: spec.ptp_bytes,
            trusted_ranges,
            screened_pages: Vec::new(),
        })
    }

    /// Builds a layout directly from explicit sub-zone byte ranges — used
    /// by the hypervisor planner (section 7), which carves guest `ZONE_PTP`
    /// slices out of `ZONE_HYPERVISOR` while keeping the hypervisor-wide
    /// low water mark.
    ///
    /// # Panics
    ///
    /// Panics on empty or unaligned ranges — planner bugs.
    pub fn manual(
        subzones: Vec<Range<u64>>,
        low_water_mark: u64,
        total_bytes: u64,
        ptp_bytes: u64,
    ) -> Self {
        assert!(!subzones.is_empty(), "a layout needs at least one sub-zone");
        for r in &subzones {
            assert!(r.start < r.end && r.start % PAGE_SIZE == 0 && r.end % PAGE_SIZE == 0);
        }
        PtpLayout {
            subzones: subzones.into_iter().map(|r| (r, None)).collect(),
            reserved_anti: Vec::new(),
            low_water_mark,
            total_bytes,
            ptp_bytes,
            trusted_ranges: Vec::new(),
            screened_pages: Vec::new(),
        }
    }

    /// Returns the layout with the given page addresses carved out of its
    /// sub-zones — the section 7 *page-size-bit screening*: frames whose
    /// PS-bit cell positions are `1→0`-vulnerable must not host PD/PDPT
    /// tables, because a flipped PS bit would turn a table pointer into an
    /// attacker-readable huge-page mapping of the table area.
    ///
    /// # Panics
    ///
    /// Panics if a page is not page-aligned — screening results come from
    /// code that produces aligned addresses; anything else is a bug.
    pub fn with_screened_pages(mut self, pages: &[u64]) -> Self {
        let mut screened: Vec<u64> = pages.to_vec();
        screened.sort_unstable();
        screened.dedup();
        for page in &screened {
            assert_eq!(page % PAGE_SIZE, 0, "screened addresses must be page aligned");
        }
        let mut subzones = Vec::new();
        for (range, level) in self.subzones {
            let mut cursor = range.start;
            for page in screened.iter().filter(|p| range.contains(*p)) {
                if cursor < *page {
                    subzones.push((cursor..*page, level));
                }
                cursor = page + PAGE_SIZE;
            }
            if cursor < range.end {
                subzones.push((cursor..range.end, level));
            }
        }
        self.subzones = subzones;
        self.screened_pages = screened;
        self
    }

    /// Page addresses removed from the zone by PS-bit screening.
    pub fn screened_pages(&self) -> &[u64] {
        &self.screened_pages
    }

    /// Splits ascending true-cell chunks among the four levels: the leaf PT
    /// zone gets 13/16 of the capacity at the lowest addresses, PD 1/8,
    /// then PDPT and PML4 1/32 each at the very top — preserving the §7
    /// invariant that higher levels live at higher physical addresses.
    fn split_levels(chunks: &[Range<u64>], ptp_bytes: u64) -> Vec<(Range<u64>, Option<PtLevel>)> {
        let mut budgets = [
            (PtLevel::Pt, ptp_bytes / 16 * 13),
            (PtLevel::Pd, ptp_bytes / 8),
            (PtLevel::Pdpt, ptp_bytes / 32),
            (PtLevel::Pml4, ptp_bytes / 32),
        ];
        // Rounding dust goes to the leaf level.
        let assigned: u64 = budgets.iter().map(|(_, b)| *b).sum();
        budgets[0].1 += ptp_bytes - assigned;
        // Page-align every budget boundary.
        for (_, b) in budgets.iter_mut() {
            *b = (*b / PAGE_SIZE) * PAGE_SIZE;
        }
        let mut out = Vec::new();
        let mut level_idx = 0usize;
        let mut remaining = budgets[0].1;
        for chunk in chunks {
            let mut cursor = chunk.start;
            while cursor < chunk.end {
                while remaining == 0 && level_idx + 1 < budgets.len() {
                    level_idx += 1;
                    remaining = budgets[level_idx].1;
                }
                let take = remaining.min(chunk.end - cursor);
                if take == 0 {
                    // All budgets exhausted (alignment dust): tack the rest
                    // onto the last level.
                    out.push((cursor..chunk.end, Some(budgets[budgets.len() - 1].0)));
                    break;
                }
                out.push((cursor..cursor + take, Some(budgets[level_idx].0)));
                cursor += take;
                remaining -= take;
            }
        }
        // Merge adjacent same-level ranges produced by chunk boundaries.
        let mut merged: Vec<(Range<u64>, Option<PtLevel>)> = Vec::new();
        for (r, l) in out {
            if let Some((last, ll)) = merged.last_mut() {
                if *ll == l && last.end == r.start {
                    last.end = r.end;
                    continue;
                }
            }
            merged.push((r, l));
        }
        merged
    }

    /// The physical stripes (below the low water mark) whose PTP indicator
    /// contains exactly one `0` — reserved for trusted allocations under the
    /// two-zeros restriction.
    fn one_zero_stripes(total_bytes: u64, ptp_bytes: u64, low_water_mark: u64) -> Vec<Range<u64>> {
        let n = (total_bytes / ptp_bytes).trailing_zeros();
        let all_ones = total_bytes - ptp_bytes;
        let mut out = Vec::new();
        for i in 0..n {
            let base = all_ones & !(ptp_bytes << i);
            let range = base..base + ptp_bytes;
            // The stripe may be partially swallowed by ZONE_PTP when skipped
            // anti rows pushed the mark below total - ptp_bytes.
            if range.start >= low_water_mark {
                continue;
            }
            out.push(range.start..range.end.min(low_water_mark));
        }
        out.sort_by_key(|r| r.start);
        out
    }

    /// The low water mark: the byte address below which ordinary data lives
    /// and at or above which only `ZONE_PTP` lives.
    pub fn low_water_mark(&self) -> u64 {
        self.low_water_mark
    }

    /// Physical memory size the layout was computed for.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Usable true-cell bytes in the zone.
    pub fn ptp_bytes(&self) -> u64 {
        self.ptp_bytes
    }

    /// Width of the PTP indicator in bits:
    /// `log2(total_bytes) − log2(ptp_bytes)` (section 5's `n`).
    pub fn indicator_bits(&self) -> u32 {
        (self.total_bytes / self.ptp_bytes).trailing_zeros()
    }

    /// True-cell sub-zones in ascending byte order, with level tags when
    /// multi-level.
    pub fn subzones(&self) -> &[(Range<u64>, Option<PtLevel>)] {
        &self.subzones
    }

    /// Sub-zone byte ranges converted to frame ranges.
    pub fn subzone_pfn_ranges(&self) -> Vec<(Range<u64>, Option<PtLevel>)> {
        self.subzones.iter().map(|(r, l)| (r.start / PAGE_SIZE..r.end / PAGE_SIZE, *l)).collect()
    }

    /// Anti-cell byte ranges above the mark left unused.
    pub fn reserved_anti_ranges(&self) -> &[Range<u64>] {
        &self.reserved_anti
    }

    /// Bytes lost to reserved anti-cell rows (section 6.2).
    pub fn capacity_loss_bytes(&self) -> u64 {
        self.reserved_anti.iter().map(|r| r.end - r.start).sum()
    }

    /// Capacity loss as a fraction of total memory.
    pub fn capacity_loss_fraction(&self) -> f64 {
        self.capacity_loss_bytes() as f64 / self.total_bytes as f64
    }

    /// Byte ranges below the mark reserved for trusted allocations (empty
    /// unless the two-zeros restriction is on).
    pub fn trusted_ranges(&self) -> &[Range<u64>] {
        &self.trusted_ranges
    }

    /// Whether a physical byte address lies in `ZONE_PTP` (at or above the
    /// mark).
    pub fn is_above_mark(&self, addr: u64) -> bool {
        addr >= self.low_water_mark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_dram::{AddressMapping, CellLayout, CellType, CellTypeMap, DramGeometry};

    /// 64 MiB of memory, 64 KiB rows, alternating every 128 rows (8 MiB
    /// runs), true-cells first ⇒ top run (56–64 MiB) is anti-cells.
    fn alternating_map() -> CellTypeMap {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        CellTypeMap::from_layout(
            &g,
            CellLayout::Alternating { period_rows: 128, first: CellType::True },
        )
    }

    #[test]
    fn layout_skips_top_anti_region() {
        let map = alternating_map();
        let spec = PtpSpec::paper_default().with_size(4 << 20);
        let layout = PtpLayout::build(&map, 64 << 20, &spec).unwrap();
        // Top 8 MiB (56..64 MiB) is anti: reserved. PTP sits at 52..56 MiB.
        assert_eq!(layout.low_water_mark(), 52 << 20);
        assert_eq!(layout.subzones().len(), 1);
        assert_eq!(layout.subzones()[0].0, (52 << 20)..(56 << 20));
        assert_eq!(layout.reserved_anti_ranges().len(), 1);
        assert_eq!(layout.reserved_anti_ranges()[0], (56 << 20)..(64 << 20));
        assert_eq!(layout.capacity_loss_bytes(), 8 << 20);
        assert!((layout.capacity_loss_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn layout_spans_multiple_true_regions_when_needed() {
        let map = alternating_map();
        // 12 MiB > one 8 MiB true region: spans two regions, skipping the
        // anti region between them.
        let spec = PtpSpec::paper_default().with_size(16 << 20);
        let layout = PtpLayout::build(&map, 64 << 20, &spec).unwrap();
        assert_eq!(layout.subzones().len(), 2);
        let total: u64 = layout.subzones().iter().map(|(r, _)| r.end - r.start).sum();
        assert_eq!(total, 16 << 20);
        // Reserved: the 56-64 anti region and the 40-48 anti region.
        assert_eq!(layout.capacity_loss_bytes(), 16 << 20);
        assert_eq!(layout.low_water_mark(), 32 << 20);
    }

    #[test]
    fn all_true_layout_has_no_loss() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let spec = PtpSpec::paper_default().with_size(4 << 20);
        let layout = PtpLayout::build(&map, 64 << 20, &spec).unwrap();
        assert_eq!(layout.capacity_loss_bytes(), 0);
        assert_eq!(layout.low_water_mark(), 60 << 20);
    }

    #[test]
    fn all_anti_layout_fails() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllAnti);
        let spec = PtpSpec::paper_default().with_size(4 << 20);
        let err = PtpLayout::build(&map, 64 << 20, &spec).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientTrueCells { .. }));
    }

    #[test]
    fn impossible_zone_sizes_are_typed_errors() {
        let map = alternating_map();
        for (total, ptp) in [
            (48 << 20, 4 << 20),
            ((64 << 20) + 1, 4 << 20),
            (64 << 20, 3 << 20),
            (64 << 20, 2048),
            (64 << 20, 64 << 20),
            (64 << 20, 128 << 20),
        ] {
            let spec = PtpSpec::paper_default().with_size(ptp);
            let err = PtpLayout::build(&map, total, &spec).unwrap_err();
            assert!(
                matches!(err, AllocError::BadPtpSize { ptp_bytes, total_bytes, .. }
                    if ptp_bytes == ptp && total_bytes == total),
                "{total}/{ptp}: {err}"
            );
        }
    }

    #[test]
    fn indicator_bits_matches_paper() {
        // 8 GiB with 32 MiB PTP ⇒ n = 8 (section 5).
        let g = DramGeometry::new(128 * 1024, 8192, 8, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let spec = PtpSpec::paper_default();
        let layout = PtpLayout::build(&map, 8 << 30, &spec).unwrap();
        assert_eq!(layout.indicator_bits(), 8);
    }

    #[test]
    fn multi_level_orders_levels_by_address() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let spec = PtpSpec::paper_default().with_size(4 << 20).with_multi_level(true);
        let layout = PtpLayout::build(&map, 64 << 20, &spec).unwrap();
        let mut last_level = 0u8;
        let mut last_end = 0u64;
        for (range, level) in layout.subzones() {
            let level = level.expect("multi-level tags every sub-zone");
            assert!(level.number() >= last_level, "levels ascend with address");
            assert!(range.start >= last_end);
            last_level = level.number();
            last_end = range.end;
        }
        // All four levels present and capacity preserved.
        let levels: std::collections::HashSet<u8> =
            layout.subzones().iter().filter_map(|(_, l)| l.map(|l| l.number())).collect();
        assert_eq!(levels.len(), 4);
        let total: u64 = layout.subzones().iter().map(|(r, _)| r.end - r.start).sum();
        assert_eq!(total, 4 << 20);
    }

    #[test]
    fn two_zero_restriction_builds_trusted_stripes() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let spec = PtpSpec::paper_default().with_size(4 << 20).with_two_zeros_restriction(true);
        let layout = PtpLayout::build(&map, 64 << 20, &spec).unwrap();
        // n = 4 indicator bits; all-ones block is ZONE_PTP itself; 4 one-zero
        // stripes of 4 MiB each below the mark.
        assert_eq!(layout.indicator_bits(), 4);
        assert_eq!(layout.trusted_ranges().len(), 4);
        for r in layout.trusted_ranges() {
            assert!(r.end <= layout.low_water_mark());
            assert_eq!(r.end - r.start, 4 << 20);
        }
        // 3.12% of memory for 8 GiB/32 MiB in the paper; here 4×4 MiB / 64 MiB = 25%
        // (small n makes the fraction large — the formula is (n choose 1)/2^n).
        let frac: u64 = layout.trusted_ranges().iter().map(|r| r.end - r.start).sum();
        assert_eq!(frac, 16 << 20);
    }

    #[test]
    fn paper_scale_two_zero_fraction() {
        // 8 GiB, 32 MiB PTP: stripes cover 8×32 MiB = 256 MiB = 3.125%,
        // matching the paper's (8 choose 1)/2^8 = 3.12%.
        let g = DramGeometry::new(128 * 1024, 8192, 8, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let spec = PtpSpec::paper_default().with_two_zeros_restriction(true);
        let layout = PtpLayout::build(&map, 8 << 30, &spec).unwrap();
        let covered: u64 = layout.trusted_ranges().iter().map(|r| r.end - r.start).sum();
        let frac = covered as f64 / (8u64 << 30) as f64;
        assert!((frac - 8.0 / 256.0).abs() < 1e-9, "frac={frac}");
    }

    #[test]
    fn screening_carves_pages_out_of_subzones() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let layout =
            PtpLayout::build(&map, 64 << 20, &PtpSpec::paper_default().with_size(4 << 20)).unwrap();
        let base = layout.low_water_mark();
        let bad = [base + 4096, base + 3 * 4096];
        let screened = layout.clone().with_screened_pages(&bad);
        assert_eq!(screened.screened_pages(), &bad);
        // Capacity shrinks by exactly two pages.
        let total: u64 = screened.subzones().iter().map(|(r, _)| r.end - r.start).sum();
        assert_eq!(total, (4 << 20) - 2 * 4096);
        // The screened pages are in no sub-zone.
        for page in bad {
            assert!(!screened.subzones().iter().any(|(r, _)| r.contains(&page)));
        }
        // Adjacent pages still are.
        assert!(screened.subzones().iter().any(|(r, _)| r.contains(&base)));
        assert!(screened.subzones().iter().any(|(r, _)| r.contains(&(base + 2 * 4096))));
    }

    #[test]
    fn screening_at_subzone_edges() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let map = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let layout =
            PtpLayout::build(&map, 64 << 20, &PtpSpec::paper_default().with_size(4 << 20)).unwrap();
        let (range, _) = layout.subzones()[0].clone();
        let screened = layout.clone().with_screened_pages(&[range.start, range.end - PAGE_SIZE]);
        for (r, _) in screened.subzones() {
            assert!(r.start < r.end, "no empty sub-zones");
        }
        let total: u64 = screened.subzones().iter().map(|(r, _)| r.end - r.start).sum();
        assert_eq!(total, (range.end - range.start) - 2 * PAGE_SIZE);
    }

    #[test]
    fn pt_level_helpers() {
        assert_eq!(PtLevel::Pt.parent(), Some(PtLevel::Pd));
        assert_eq!(PtLevel::Pml4.parent(), None);
        assert_eq!(PtLevel::Pml4.number(), 4);
        assert_eq!(PtLevel::Pdpt.to_string(), "PDPT");
    }

    #[test]
    fn is_above_mark() {
        let map = alternating_map();
        let layout =
            PtpLayout::build(&map, 64 << 20, &PtpSpec::paper_default().with_size(4 << 20)).unwrap();
        assert!(layout.is_above_mark(layout.low_water_mark()));
        assert!(!layout.is_above_mark(layout.low_water_mark() - 1));
    }
}
