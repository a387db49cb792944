use std::fmt;
use std::ops::Range;

use crate::buddy::BuddyAllocator;
use crate::cta::PtLevel;
use crate::error::AllocError;
use crate::frame::Pfn;
use crate::stats::ZoneStats;

/// The kinds of physical-memory zones (Figure 6, plus the paper's new zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneKind {
    /// Legacy-DMA memory: first 16 MiB.
    Dma,
    /// 32-bit addressable memory: 16 MiB – 4 GiB (x86-64).
    Dma32,
    /// Directly mapped kernel memory.
    Normal,
    /// High memory (32-bit x86 only).
    HighMem,
    /// The paper's page-table-page zone at the top of physical memory.
    Ptp,
}

impl ZoneKind {
    /// Height in the fallback order: requests fall back from higher to
    /// lower zones ([`ZoneKind::Ptp`] never participates).
    pub(crate) fn height(self) -> Option<u8> {
        match self {
            ZoneKind::Dma => Some(0),
            ZoneKind::Dma32 => Some(1),
            ZoneKind::Normal => Some(2),
            ZoneKind::HighMem => Some(3),
            ZoneKind::Ptp => None,
        }
    }
}

impl fmt::Display for ZoneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ZoneKind::Dma => "ZONE_DMA",
            ZoneKind::Dma32 => "ZONE_DMA32",
            ZoneKind::Normal => "ZONE_NORMAL",
            ZoneKind::HighMem => "ZONE_HIGHMEM",
            ZoneKind::Ptp => "ZONE_PTP",
        };
        f.write_str(s)
    }
}

/// Specification of one sub-zone when constructing a [`Zone`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubZoneSpec {
    /// Frame range `[start, end)`.
    pub pfn_range: Range<u64>,
    /// Page-table level served (multi-level `ZONE_PTP` only).
    pub level: Option<PtLevel>,
    /// Reserved for trusted allocations (the two-zeros-restriction stripes).
    pub trusted_only: bool,
}

impl SubZoneSpec {
    /// An ordinary sub-zone over `pfn_range`.
    pub fn plain(pfn_range: Range<u64>) -> Self {
        SubZoneSpec { pfn_range, level: None, trusted_only: false }
    }
}

/// One contiguous sub-range of a zone with its own buddy allocator.
///
/// Ordinary zones have a single sub-zone spanning their whole range. A CTA
/// `ZONE_PTP` has one sub-zone per contiguous *true-cell* region
/// (`ZONE_TC`), skipping interleaved anti-cell rows (Figure 8). Sub-zones
/// may additionally be tagged with the page-table level they serve
/// (multi-level extension, section 7) or as trusted-only stripes
/// (section 5's two-zeros restriction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubZone {
    buddy: BuddyAllocator,
    level: Option<PtLevel>,
    trusted_only: bool,
}

impl SubZone {
    /// The page-table level this sub-zone is dedicated to, if any.
    pub fn level(&self) -> Option<PtLevel> {
        self.level
    }

    /// Whether only trusted allocations may use this sub-zone.
    pub fn trusted_only(&self) -> bool {
        self.trusted_only
    }

    /// Frame range of the sub-zone.
    pub fn pfn_range(&self) -> Range<u64> {
        self.buddy.start().0..self.buddy.end().0
    }

    /// Free frames remaining.
    pub fn free_pages(&self) -> u64 {
        self.buddy.free_pages()
    }
}

/// A physical-memory zone: a kind, a frame span, and one or more sub-zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    kind: ZoneKind,
    span: Range<u64>,
    subzones: Vec<SubZone>,
    stats: ZoneStats,
}

impl Zone {
    /// Creates an ordinary single-sub-zone zone over frames `[start, end)`.
    ///
    /// # Errors
    ///
    /// [`AllocError::FrameTableTooLarge`] if the buddy's tables do not fit
    /// in host memory.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn contiguous(kind: ZoneKind, start: Pfn, end: Pfn) -> Result<Self, AllocError> {
        Zone::from_subzones(kind, vec![SubZoneSpec::plain(start.0..end.0)])
    }

    /// Creates a zone from explicit sub-zone specs in ascending address
    /// order (used for `ZONE_PTP` and for zones with trusted stripes).
    ///
    /// # Errors
    ///
    /// [`AllocError::FrameTableTooLarge`] if a sub-zone's buddy tables do
    /// not fit in host memory.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or any range is empty.
    pub fn from_subzones(kind: ZoneKind, specs: Vec<SubZoneSpec>) -> Result<Self, AllocError> {
        assert!(!specs.is_empty(), "a zone needs at least one sub-zone");
        let span_start = specs.iter().map(|s| s.pfn_range.start).min().expect("nonempty");
        let span_end = specs.iter().map(|s| s.pfn_range.end).max().expect("nonempty");
        let subzones = specs
            .into_iter()
            .map(|s| {
                Ok(SubZone {
                    buddy: BuddyAllocator::new(Pfn(s.pfn_range.start), Pfn(s.pfn_range.end))?,
                    level: s.level,
                    trusted_only: s.trusted_only,
                })
            })
            .collect::<Result<_, AllocError>>()?;
        Ok(Zone { kind, span: span_start..span_end, subzones, stats: ZoneStats::default() })
    }

    /// The zone kind.
    pub fn kind(&self) -> ZoneKind {
        self.kind
    }

    /// The zone's full frame span (sub-zone gaps included).
    pub fn span(&self) -> Range<u64> {
        self.span.clone()
    }

    /// The zone's sub-zones in ascending address order.
    pub fn subzones(&self) -> &[SubZone] {
        &self.subzones
    }

    /// Whether the zone manages `pfn` (i.e. some sub-zone contains it).
    pub fn manages(&self, pfn: Pfn) -> bool {
        self.subzones.iter().any(|s| s.buddy.contains(pfn))
    }

    /// Total frames managed across sub-zones.
    pub fn total_pages(&self) -> u64 {
        self.subzones.iter().map(|s| s.buddy.total_pages()).sum()
    }

    /// Free frames across sub-zones.
    pub fn free_pages(&self) -> u64 {
        self.subzones.iter().map(|s| s.buddy.free_pages()).sum()
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &ZoneStats {
        &self.stats
    }

    /// Allocates `2^order` frames, searching sub-zones in ascending address
    /// order — the paper's "search each ZONE_TC sequentially" policy.
    ///
    /// When `level` is given, only sub-zones tagged with that level are
    /// eligible. Trusted-only sub-zones are skipped unless `allow_trusted`.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when no eligible sub-zone can serve the
    /// order; [`AllocError::OrderTooLarge`] for oversized requests.
    pub fn alloc(
        &mut self,
        order: u8,
        level: Option<PtLevel>,
        allow_trusted: bool,
    ) -> Result<Pfn, AllocError> {
        if order >= crate::MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        for sub in &mut self.subzones {
            if let Some(want) = level {
                if sub.level != Some(want) {
                    continue;
                }
            }
            if sub.trusted_only && !allow_trusted {
                continue;
            }
            match sub.buddy.alloc(order) {
                Ok(pfn) => {
                    self.stats.allocations += 1;
                    self.stats.pages_allocated += 1 << order;
                    return Ok(pfn);
                }
                Err(AllocError::OutOfMemory { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        self.stats.failures += 1;
        Err(AllocError::OutOfMemory { zone: self.kind, order })
    }

    /// Frees a block previously allocated from this zone.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownFrame`] if no sub-zone manages `pfn`; otherwise
    /// the underlying buddy errors ([`AllocError::NotAllocated`],
    /// [`AllocError::OrderMismatch`]).
    pub fn free(&mut self, pfn: Pfn, order: u8) -> Result<(), AllocError> {
        for sub in &mut self.subzones {
            if sub.buddy.contains(pfn) {
                sub.buddy.free(pfn, order)?;
                self.stats.frees += 1;
                self.stats.pages_freed += 1 << order;
                return Ok(());
            }
        }
        Err(AllocError::UnknownFrame { pfn })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_zone_basics() {
        let z = Zone::contiguous(ZoneKind::Normal, Pfn(0), Pfn(256)).unwrap();
        assert_eq!(z.kind(), ZoneKind::Normal);
        assert_eq!(z.total_pages(), 256);
        assert_eq!(z.free_pages(), 256);
        assert!(z.manages(Pfn(100)));
        assert!(!z.manages(Pfn(256)));
    }

    #[test]
    fn alloc_free_updates_stats() {
        let mut z = Zone::contiguous(ZoneKind::Dma, Pfn(0), Pfn(64)).unwrap();
        let p = z.alloc(2, None, true).unwrap();
        assert_eq!(z.stats().allocations, 1);
        assert_eq!(z.stats().pages_allocated, 4);
        z.free(p, 2).unwrap();
        assert_eq!(z.stats().frees, 1);
        assert_eq!(z.free_pages(), 64);
    }

    #[test]
    fn subzones_searched_in_address_order() {
        let mut z = Zone::from_subzones(
            ZoneKind::Ptp,
            vec![SubZoneSpec::plain(100..164), SubZoneSpec::plain(300..364)],
        )
        .unwrap();
        let p = z.alloc(0, None, true).unwrap();
        assert_eq!(p, Pfn(100));
        assert_eq!(z.span(), 100..364);
        assert!(!z.manages(Pfn(200)), "gap frames are not managed");
    }

    #[test]
    fn exhausting_first_subzone_spills_to_next() {
        let mut z = Zone::from_subzones(
            ZoneKind::Ptp,
            vec![SubZoneSpec::plain(0..4), SubZoneSpec::plain(8..12)],
        )
        .unwrap();
        let mut got = Vec::new();
        for _ in 0..8 {
            got.push(z.alloc(0, None, true).unwrap().0);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        assert!(z.alloc(0, None, true).is_err());
        assert_eq!(z.stats().failures, 1);
    }

    #[test]
    fn level_tagged_subzones_filter() {
        let mut z = Zone::from_subzones(
            ZoneKind::Ptp,
            vec![
                SubZoneSpec { pfn_range: 0..16, level: Some(PtLevel::Pt), trusted_only: false },
                SubZoneSpec { pfn_range: 16..32, level: Some(PtLevel::Pd), trusted_only: false },
            ],
        )
        .unwrap();
        let p = z.alloc(0, Some(PtLevel::Pd), true).unwrap();
        assert!(p.0 >= 16);
        let q = z.alloc(0, Some(PtLevel::Pt), true).unwrap();
        assert!(q.0 < 16);
        // No sub-zone for PML4 in this setup.
        assert!(z.alloc(0, Some(PtLevel::Pml4), true).is_err());
    }

    #[test]
    fn trusted_subzones_skipped_for_untrusted_requests() {
        let mut z = Zone::from_subzones(
            ZoneKind::Normal,
            vec![
                SubZoneSpec::plain(0..4),
                SubZoneSpec { pfn_range: 4..8, level: None, trusted_only: true },
            ],
        )
        .unwrap();
        for _ in 0..4 {
            z.alloc(0, None, false).unwrap();
        }
        assert!(z.alloc(0, None, false).is_err(), "untrusted must not reach the stripe");
        let p = z.alloc(0, None, true).unwrap();
        assert!(p.0 >= 4);
    }

    #[test]
    fn free_of_gap_frame_rejected() {
        let mut z = Zone::from_subzones(
            ZoneKind::Ptp,
            vec![SubZoneSpec::plain(0..4), SubZoneSpec::plain(8..12)],
        )
        .unwrap();
        assert!(matches!(z.free(Pfn(5), 0), Err(AllocError::UnknownFrame { .. })));
    }

    #[test]
    fn zone_kind_display_and_height() {
        assert_eq!(ZoneKind::Ptp.to_string(), "ZONE_PTP");
        assert_eq!(ZoneKind::Dma32.to_string(), "ZONE_DMA32");
        assert_eq!(ZoneKind::Ptp.height(), None);
        assert!(ZoneKind::Normal.height() > ZoneKind::Dma32.height());
    }
}
