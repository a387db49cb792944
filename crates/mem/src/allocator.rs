use std::ops::Range;

use crate::cta::PtpLayout;
use crate::error::AllocError;
use crate::frame::{Pfn, PAGE_SIZE};
use crate::gfp::{GfpFlags, ZonePreference};
use crate::stats::AllocStats;
use crate::zone::{SubZoneSpec, Zone, ZoneKind};

/// Declarative description of a machine's physical-memory zones, from which
/// a [`ZonedAllocator`] is built.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryMap {
    total_bytes: u64,
    zones: Vec<(ZoneKind, Vec<SubZoneSpec>)>,
    ptp: Option<PtpLayout>,
    strict_user: bool,
}

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

impl MemoryMap {
    /// The x86-64 layout (Figure 6b): `ZONE_DMA` 0–16 MiB, `ZONE_DMA32`
    /// 16 MiB–4 GiB, `ZONE_NORMAL` above 4 GiB.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a positive multiple of [`PAGE_SIZE`].
    pub fn x86_64(total_bytes: u64) -> Self {
        let boundaries =
            [(ZoneKind::Dma, 0), (ZoneKind::Dma32, 16 * MIB), (ZoneKind::Normal, 4 * GIB)];
        Self::from_boundaries(total_bytes, &boundaries)
    }

    /// The 32-bit x86 layout (Figure 6a): `ZONE_DMA` 0–16 MiB,
    /// `ZONE_NORMAL` 16–896 MiB, `ZONE_HIGHMEM` above 896 MiB.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a positive multiple of [`PAGE_SIZE`].
    pub fn x86_32(total_bytes: u64) -> Self {
        let boundaries =
            [(ZoneKind::Dma, 0), (ZoneKind::Normal, 16 * MIB), (ZoneKind::HighMem, 896 * MIB)];
        Self::from_boundaries(total_bytes, &boundaries)
    }

    fn from_boundaries(total_bytes: u64, boundaries: &[(ZoneKind, u64)]) -> Self {
        assert!(
            total_bytes > 0 && total_bytes.is_multiple_of(PAGE_SIZE),
            "memory must be page aligned"
        );
        let mut zones = Vec::new();
        for (i, (kind, start)) in boundaries.iter().enumerate() {
            let end =
                boundaries.get(i + 1).map(|(_, s)| *s).unwrap_or(total_bytes).min(total_bytes);
            if *start >= end {
                continue;
            }
            zones.push((*kind, vec![SubZoneSpec::plain(start / PAGE_SIZE..end / PAGE_SIZE)]));
        }
        MemoryMap { total_bytes, zones, ptp: None, strict_user: false }
    }

    /// The CATT layout (Brasser et al., the paper's section 2.5 point of
    /// comparison): kernel memory — including all page tables — lives in a
    /// low partition, user memory in a high partition, separated by a
    /// guard gap neither side may allocate, and **neither class of request
    /// ever falls back into the other's partition**.
    ///
    /// # Panics
    ///
    /// Panics unless `user_bytes + guard_bytes < total_bytes` and all sizes
    /// are page-aligned.
    pub fn x86_64_with_catt(total_bytes: u64, user_bytes: u64, guard_bytes: u64) -> Self {
        assert!(total_bytes.is_multiple_of(PAGE_SIZE) && user_bytes.is_multiple_of(PAGE_SIZE));
        assert!(guard_bytes.is_multiple_of(PAGE_SIZE));
        assert!(user_bytes + guard_bytes < total_bytes, "no room for the kernel partition");
        let kernel_top = total_bytes - user_bytes - guard_bytes;
        let mut map = Self::from_boundaries(
            kernel_top,
            &[(ZoneKind::Dma, 0), (ZoneKind::Dma32, 16 * MIB), (ZoneKind::Normal, 4 * GIB)],
        );
        map.total_bytes = total_bytes;
        map.zones.push((
            ZoneKind::HighMem,
            vec![SubZoneSpec::plain(
                (total_bytes - user_bytes) / PAGE_SIZE..total_bytes / PAGE_SIZE,
            )],
        ));
        map.strict_user = true;
        map
    }

    /// Applies a CTA [`PtpLayout`]: clips ordinary zones at the low water
    /// mark, adds `ZONE_PTP` from the layout's true-cell sub-zones, and
    /// carves any trusted stripes out of the zones that contain them.
    ///
    /// # Panics
    ///
    /// Panics if the layout was computed for a different memory size.
    pub fn with_cta(mut self, layout: PtpLayout) -> Self {
        assert_eq!(
            layout.total_bytes(),
            self.total_bytes,
            "PTP layout and memory map disagree on memory size"
        );
        let mark_pfn = layout.low_water_mark() / PAGE_SIZE;
        let trusted: Vec<Range<u64>> = layout
            .trusted_ranges()
            .iter()
            .map(|r| r.start / PAGE_SIZE..r.end / PAGE_SIZE)
            .collect();
        let mut zones = Vec::new();
        for (kind, specs) in self.zones.drain(..) {
            let mut clipped = Vec::new();
            for spec in specs {
                let range = spec.pfn_range.start..spec.pfn_range.end.min(mark_pfn);
                if range.start >= range.end {
                    continue;
                }
                clipped.extend(carve_trusted(range, &trusted));
            }
            if !clipped.is_empty() {
                zones.push((kind, clipped));
            }
        }
        zones.push((
            ZoneKind::Ptp,
            layout
                .subzone_pfn_ranges()
                .into_iter()
                .map(|(r, level)| SubZoneSpec { pfn_range: r, level, trusted_only: false })
                .collect(),
        ));
        MemoryMap {
            total_bytes: self.total_bytes,
            zones,
            ptp: Some(layout),
            strict_user: self.strict_user,
        }
    }

    /// Total physical memory in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The CTA layout, when applied.
    pub fn ptp_layout(&self) -> Option<&PtpLayout> {
        self.ptp.as_ref()
    }

    /// Zone kinds and their sub-zone specs.
    pub fn zones(&self) -> &[(ZoneKind, Vec<SubZoneSpec>)] {
        &self.zones
    }
}

/// Splits `range` into plain and trusted-only sub-zone specs around the
/// (sorted, disjoint) trusted stripes.
fn carve_trusted(range: Range<u64>, trusted: &[Range<u64>]) -> Vec<SubZoneSpec> {
    let mut out = Vec::new();
    let mut cursor = range.start;
    for stripe in trusted {
        if stripe.end <= range.start || stripe.start >= range.end {
            continue;
        }
        let s = stripe.start.max(range.start);
        let e = stripe.end.min(range.end);
        if cursor < s {
            out.push(SubZoneSpec::plain(cursor..s));
        }
        out.push(SubZoneSpec { pfn_range: s..e, level: None, trusted_only: true });
        cursor = e;
    }
    if cursor < range.end {
        out.push(SubZoneSpec::plain(cursor..range.end));
    }
    out
}

/// The zoned buddy allocator (Figure 7).
///
/// Requests carry [`GfpFlags`]; ordinary requests start at their preferred
/// zone and fall back down the zonelist (`NORMAL → DMA32 → DMA` on x86-64).
/// `__GFP_PTP` requests are served from `ZONE_PTP` **only** (Rule 1), and
/// `ZONE_PTP` never serves anything else (Rule 2) because it is excluded
/// from every fallback list.
#[derive(Debug, Clone, PartialEq)]
pub struct ZonedAllocator {
    zones: Vec<Zone>,
    total_bytes: u64,
    ptp: Option<PtpLayout>,
    strict_user: bool,
    stats: AllocStats,
}

impl ZonedAllocator {
    /// Builds the allocator for a memory map.
    ///
    /// # Errors
    ///
    /// [`AllocError::FrameTableTooLarge`] if a zone's buddy tables do not
    /// fit in host memory.
    pub fn new(map: MemoryMap) -> Result<Self, AllocError> {
        let zones = map
            .zones
            .iter()
            .map(|(kind, specs)| Zone::from_subzones(*kind, specs.clone()))
            .collect::<Result<_, _>>()?;
        Ok(ZonedAllocator {
            zones,
            total_bytes: map.total_bytes,
            ptp: map.ptp,
            strict_user: map.strict_user,
            stats: AllocStats::default(),
        })
    }

    /// Whether user allocations are hard-partitioned (CATT layout).
    pub fn strict_user(&self) -> bool {
        self.strict_user
    }

    /// Total physical memory in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The CTA layout, when enabled.
    pub fn ptp_layout(&self) -> Option<&PtpLayout> {
        self.ptp.as_ref()
    }

    /// Whether CTA (a `ZONE_PTP`) is active.
    pub fn cta_enabled(&self) -> bool {
        self.ptp.is_some()
    }

    /// All zones in map order.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The zone of a given kind, if present.
    pub fn zone(&self, kind: ZoneKind) -> Option<&Zone> {
        self.zones.iter().find(|z| z.kind() == kind)
    }

    /// Global allocation statistics.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Snapshots allocator telemetry into `c`: the global dispatch
    /// counters under `alloc` and each zone's counters under
    /// `zone:<ZONE_NAME>`.
    pub fn record_counters(&self, c: &mut cta_telemetry::Counters) {
        c.record(&self.stats);
        for zone in &self.zones {
            c.record_as(&format!("zone:{}", zone.kind()), zone.stats());
        }
    }

    /// Free frames across all zones.
    pub fn free_page_count(&self) -> u64 {
        self.zones.iter().map(|z| z.free_pages()).sum()
    }

    /// Allocates `2^order` frames per `gfp` (Figure 7's dispatch).
    ///
    /// # Errors
    ///
    /// - [`AllocError::NoPtpZone`] for `__GFP_PTP` without CTA;
    /// - [`AllocError::OutOfMemory`] when every eligible zone is exhausted
    ///   (for `__GFP_PTP`, when `ZONE_PTP` is exhausted — no fallback);
    /// - [`AllocError::OrderTooLarge`] for oversized requests.
    pub fn alloc_pages(&mut self, gfp: GfpFlags, order: u8) -> Result<Pfn, AllocError> {
        if gfp.ptp {
            let zone = self
                .zones
                .iter_mut()
                .find(|z| z.kind() == ZoneKind::Ptp)
                .ok_or(AllocError::NoPtpZone)?;
            return match zone.alloc(order, gfp.ptp_level, true) {
                Ok(pfn) => {
                    self.stats.ptp_allocations += 1;
                    Ok(pfn)
                }
                Err(e) => {
                    self.stats.ptp_failures += 1;
                    Err(e)
                }
            };
        }
        let allow_trusted = gfp.zone != ZonePreference::HighUser;
        let start_height = match gfp.zone {
            ZonePreference::Dma => 0,
            ZonePreference::Dma32 => 1,
            ZonePreference::Normal => 2,
            ZonePreference::HighUser => 3,
        };
        // CATT: user requests are confined to the user partition; they must
        // never spill into kernel memory (and kernel preferences already
        // never climb into HighMem).
        let stop_height =
            if self.strict_user && gfp.zone == ZonePreference::HighUser { 3 } else { 0 };
        let mut attempt = 0u32;
        for height in (stop_height..=start_height).rev() {
            let Some(zone) = self.zones.iter_mut().find(|z| z.kind().height() == Some(height))
            else {
                continue;
            };
            match zone.alloc(order, None, allow_trusted) {
                Ok(pfn) => {
                    if attempt == 0 {
                        self.stats.primary_hits += 1;
                    } else {
                        self.stats.fallbacks += 1;
                    }
                    return Ok(pfn);
                }
                Err(AllocError::OutOfMemory { .. }) => {
                    attempt += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        self.stats.failures += 1;
        Err(AllocError::OutOfMemory {
            zone: self
                .zones
                .iter()
                .map(|z| z.kind())
                .find(|k| k.height() == Some(start_height))
                .unwrap_or(ZoneKind::Normal),
            order,
        })
    }

    /// Convenience: a single zeroable page with `gfp`.
    ///
    /// # Errors
    ///
    /// See [`alloc_pages`](Self::alloc_pages).
    pub fn alloc_page(&mut self, gfp: GfpFlags) -> Result<Pfn, AllocError> {
        self.alloc_pages(gfp, 0)
    }

    /// Frees a block wherever it lives.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownFrame`] if no zone manages `pfn`; otherwise the
    /// zone's errors.
    pub fn free_pages(&mut self, pfn: Pfn, order: u8) -> Result<(), AllocError> {
        for zone in &mut self.zones {
            if zone.manages(pfn) {
                return zone.free(pfn, order);
            }
        }
        Err(AllocError::UnknownFrame { pfn })
    }

    /// The zone kind managing `pfn`, if any.
    pub fn zone_of(&self, pfn: Pfn) -> Option<ZoneKind> {
        self.zones.iter().find(|z| z.manages(pfn)).map(|z| z.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cta::{PtpLayout, PtpSpec};
    use cta_dram::{AddressMapping, CellLayout, CellType, CellTypeMap, DramGeometry};

    #[test]
    fn x86_64_small_memory_has_dma_and_dma32() {
        let map = MemoryMap::x86_64(64 * MIB);
        let kinds: Vec<ZoneKind> = map.zones().iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec![ZoneKind::Dma, ZoneKind::Dma32]);
    }

    #[test]
    fn x86_64_large_memory_has_normal() {
        let map = MemoryMap::x86_64(8 * GIB);
        let kinds: Vec<ZoneKind> = map.zones().iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec![ZoneKind::Dma, ZoneKind::Dma32, ZoneKind::Normal]);
        let (_, normal) = &map.zones()[2];
        assert_eq!(normal[0].pfn_range.clone(), (4 * GIB / PAGE_SIZE)..(8 * GIB / PAGE_SIZE));
    }

    #[test]
    fn x86_32_layout_matches_figure_6a() {
        let map = MemoryMap::x86_32(2 * GIB);
        let kinds: Vec<ZoneKind> = map.zones().iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec![ZoneKind::Dma, ZoneKind::Normal, ZoneKind::HighMem]);
    }

    #[test]
    fn normal_request_falls_back_downward() {
        let map = MemoryMap::x86_64(32 * MIB); // DMA 16 MiB + DMA32 16 MiB
        let mut a = ZonedAllocator::new(map).unwrap();
        // Preference NORMAL: no NORMAL zone; served by DMA32 (fallback count
        // starts after the first *existing* zone attempt).
        let p = a.alloc_pages(GfpFlags::KERNEL, 0).unwrap();
        assert_eq!(a.zone_of(p), Some(ZoneKind::Dma32));
        // Exhaust DMA32 → falls to DMA.
        let dma32_pages = a.zone(ZoneKind::Dma32).unwrap().free_pages();
        for _ in 0..dma32_pages {
            a.alloc_pages(GfpFlags::KERNEL, 0).unwrap();
        }
        let q = a.alloc_pages(GfpFlags::KERNEL, 0).unwrap();
        assert_eq!(a.zone_of(q), Some(ZoneKind::Dma));
        assert!(a.stats().fallbacks > 0);
    }

    #[test]
    fn dma_request_never_climbs() {
        let map = MemoryMap::x86_64(32 * MIB);
        let mut a = ZonedAllocator::new(map).unwrap();
        let dma_pages = a.zone(ZoneKind::Dma).unwrap().free_pages();
        for _ in 0..dma_pages {
            let p = a.alloc_pages(GfpFlags::DMA, 0).unwrap();
            assert_eq!(a.zone_of(p), Some(ZoneKind::Dma));
        }
        assert!(matches!(a.alloc_pages(GfpFlags::DMA, 0), Err(AllocError::OutOfMemory { .. })));
    }

    fn cta_allocator() -> ZonedAllocator {
        // 64 MiB, 64 KiB rows, alternating every 128 rows; top 8 MiB anti.
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let cells = CellTypeMap::from_layout(
            &g,
            CellLayout::Alternating { period_rows: 128, first: CellType::True },
        );
        let layout =
            PtpLayout::build(&cells, 64 * MIB, &PtpSpec::paper_default().with_size(4 * MIB))
                .unwrap();
        ZonedAllocator::new(MemoryMap::x86_64(64 * MIB).with_cta(layout)).unwrap()
    }

    #[test]
    fn gfp_ptp_served_from_ptp_zone_only() {
        let mut a = cta_allocator();
        let p = a.alloc_pages(GfpFlags::PTP, 0).unwrap();
        assert_eq!(a.zone_of(p), Some(ZoneKind::Ptp));
        let mark = a.ptp_layout().unwrap().low_water_mark();
        assert!(p.addr().0 >= mark, "PTP pages live above the low water mark");
        assert_eq!(a.stats().ptp_allocations, 1);
    }

    #[test]
    fn gfp_ptp_does_not_fall_back_when_exhausted() {
        let mut a = cta_allocator();
        let ptp_pages = a.zone(ZoneKind::Ptp).unwrap().free_pages();
        for _ in 0..ptp_pages {
            a.alloc_pages(GfpFlags::PTP, 0).unwrap();
        }
        assert!(matches!(a.alloc_pages(GfpFlags::PTP, 0), Err(AllocError::OutOfMemory { .. })));
        assert_eq!(a.stats().ptp_failures, 1);
        // Plenty of ordinary memory remains — Rule 1 forbids using it.
        assert!(a.free_page_count() > 0);
    }

    #[test]
    fn ordinary_requests_never_touch_ptp_zone() {
        let mut a = cta_allocator();
        let mark = a.ptp_layout().unwrap().low_water_mark();
        let mut allocated = 0u64;
        while let Ok(p) = a.alloc_pages(GfpFlags::HIGHUSER, 0) {
            assert!(p.addr().0 < mark, "{p} breached the low water mark");
            allocated += 1;
        }
        // Everything below the mark got allocated; ZONE_PTP is untouched.
        assert_eq!(a.zone(ZoneKind::Ptp).unwrap().free_pages(), 4 * MIB / PAGE_SIZE);
        assert!(allocated > 0);
    }

    #[test]
    fn ptp_request_without_cta_fails() {
        let mut a = ZonedAllocator::new(MemoryMap::x86_64(32 * MIB)).unwrap();
        assert!(matches!(a.alloc_pages(GfpFlags::PTP, 0), Err(AllocError::NoPtpZone)));
    }

    #[test]
    fn trusted_stripes_excluded_from_user_allocations() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let cells = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let layout = PtpLayout::build(
            &cells,
            64 * MIB,
            &PtpSpec::paper_default().with_size(4 * MIB).with_two_zeros_restriction(true),
        )
        .unwrap();
        let trusted = layout.trusted_ranges().to_vec();
        let mut a = ZonedAllocator::new(MemoryMap::x86_64(64 * MIB).with_cta(layout)).unwrap();
        while let Ok(p) = a.alloc_pages(GfpFlags::HIGHUSER, 0) {
            let addr = p.addr().0;
            for r in &trusted {
                assert!(
                    !(r.start <= addr && addr < r.end),
                    "user page {addr:#x} in trusted stripe"
                );
            }
        }
        // The kernel can still use the stripes.
        let k = a.alloc_pages(GfpFlags::KERNEL, 0).unwrap();
        let addr = k.addr().0;
        assert!(trusted.iter().any(|r| r.start <= addr && addr < r.end));
    }

    #[test]
    fn catt_layout_partitions_hard() {
        let total = 32 * MIB;
        let user = 8 * MIB;
        let guard = 64 * 1024;
        let mut a = ZonedAllocator::new(MemoryMap::x86_64_with_catt(total, user, guard)).unwrap();
        assert!(a.strict_user());
        let user_base = total - user;
        let kernel_top = total - user - guard;
        // Kernel pages stay below the kernel top.
        for _ in 0..64 {
            let p = a.alloc_pages(GfpFlags::KERNEL, 0).unwrap();
            assert!(p.addr().0 < kernel_top);
        }
        // User pages stay in the user partition, and exhaust without
        // spilling into kernel memory.
        let mut user_pages = 0u64;
        loop {
            match a.alloc_pages(GfpFlags::HIGHUSER, 0) {
                Ok(p) => {
                    assert!(p.addr().0 >= user_base);
                    user_pages += 1;
                }
                Err(AllocError::OutOfMemory { .. }) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(user_pages, user / PAGE_SIZE);
        // The guard gap belongs to no zone.
        assert_eq!(a.zone_of(Pfn(kernel_top / PAGE_SIZE)), None);
    }

    #[test]
    fn free_returns_pages_to_owning_zone() {
        let mut a = cta_allocator();
        let p = a.alloc_pages(GfpFlags::PTP, 0).unwrap();
        let free_before = a.zone(ZoneKind::Ptp).unwrap().free_pages();
        a.free_pages(p, 0).unwrap();
        assert_eq!(a.zone(ZoneKind::Ptp).unwrap().free_pages(), free_before + 1);
        assert!(matches!(
            a.free_pages(Pfn(u64::MAX / PAGE_SIZE), 0),
            Err(AllocError::UnknownFrame { .. })
        ));
    }

    #[test]
    fn with_cta_requires_matching_size() {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let cells = CellTypeMap::from_layout(&g, CellLayout::AllTrue);
        let layout =
            PtpLayout::build(&cells, 64 * MIB, &PtpSpec::paper_default().with_size(4 * MIB))
                .unwrap();
        let result = std::panic::catch_unwind(|| MemoryMap::x86_64(32 * MIB).with_cta(layout));
        assert!(result.is_err());
    }
}
