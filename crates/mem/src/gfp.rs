use std::fmt;

/// Which zone an allocation request prefers (the "zone flag" portion of a
/// Linux GFP mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ZonePreference {
    /// Kernel allocations: start at `ZONE_NORMAL`, fall back downwards.
    #[default]
    Normal,
    /// 32-bit-DMA-capable memory: start at `ZONE_DMA32`.
    Dma32,
    /// Legacy-DMA memory: `ZONE_DMA` only.
    Dma,
    /// User/highmem allocations: start at the highest non-PTP zone.
    HighUser,
}

impl fmt::Display for ZonePreference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ZonePreference::Normal => "NORMAL",
            ZonePreference::Dma32 => "DMA32",
            ZonePreference::Dma => "DMA",
            ZonePreference::HighUser => "HIGHUSER",
        };
        f.write_str(s)
    }
}

/// Get-Free-Pages request flags.
///
/// A tiny structured stand-in for Linux's `gfp_t` covering what the paper's
/// patch touches: the zone preference, the new `__GFP_PTP` flag (the request
/// must be served from `ZONE_PTP` *only*, never falling back — Rule 1 of
/// section 6.1), the optional page-table level for the multi-level-zone
/// extension (section 7), and `__GFP_ZERO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GfpFlags {
    /// Zone preference for non-PTP requests.
    pub zone: ZonePreference,
    /// `__GFP_PTP`: serve from `ZONE_PTP` only.
    pub ptp: bool,
    /// Page-table level for multi-level PTP zones (`None` = single zone).
    pub ptp_level: Option<crate::cta::PtLevel>,
    /// Zero the pages before returning them.
    pub zero: bool,
}

impl GfpFlags {
    /// `GFP_KERNEL`: normal kernel allocation.
    pub const KERNEL: GfpFlags =
        GfpFlags { zone: ZonePreference::Normal, ptp: false, ptp_level: None, zero: false };

    /// `GFP_HIGHUSER`: user-page allocation.
    pub const HIGHUSER: GfpFlags =
        GfpFlags { zone: ZonePreference::HighUser, ptp: false, ptp_level: None, zero: false };

    /// `GFP_DMA`.
    pub const DMA: GfpFlags =
        GfpFlags { zone: ZonePreference::Dma, ptp: false, ptp_level: None, zero: false };

    /// `GFP_DMA32`.
    pub const DMA32: GfpFlags =
        GfpFlags { zone: ZonePreference::Dma32, ptp: false, ptp_level: None, zero: false };

    /// `__GFP_PTP`: page-table pages under CTA (zeroed, as `pte_alloc_one`
    /// does).
    pub const PTP: GfpFlags =
        GfpFlags { zone: ZonePreference::Normal, ptp: true, ptp_level: None, zero: true };

    /// Variant of [`PTP`](Self::PTP) targeting one level's sub-zone.
    pub fn ptp_for_level(level: crate::cta::PtLevel) -> GfpFlags {
        GfpFlags { ptp_level: Some(level), ..Self::PTP }
    }

    /// Request zeroed pages.
    pub fn zeroed(mut self) -> GfpFlags {
        self.zero = true;
        self
    }
}

impl fmt::Display for GfpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GFP_{}", self.zone)?;
        if self.ptp {
            f.write_str("|__GFP_PTP")?;
            if let Some(level) = self.ptp_level {
                write!(f, "({level})")?;
            }
        }
        if self.zero {
            f.write_str("|__GFP_ZERO")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cta::PtLevel;

    #[test]
    fn presets() {
        const {
            assert!(GfpFlags::PTP.ptp);
            assert!(GfpFlags::PTP.zero);
            assert!(!GfpFlags::KERNEL.ptp);
        }
        assert_eq!(GfpFlags::HIGHUSER.zone, ZonePreference::HighUser);
    }

    #[test]
    fn ptp_for_level_sets_level() {
        let g = GfpFlags::ptp_for_level(PtLevel::Pdpt);
        assert_eq!(g.ptp_level, Some(PtLevel::Pdpt));
        assert!(g.ptp);
    }

    #[test]
    fn display_mentions_flags() {
        let s = GfpFlags::PTP.to_string();
        assert!(s.contains("__GFP_PTP"));
        assert!(s.contains("__GFP_ZERO"));
        assert_eq!(GfpFlags::KERNEL.to_string(), "GFP_NORMAL");
    }

    #[test]
    fn zeroed_builder() {
        assert!(GfpFlags::KERNEL.zeroed().zero);
    }
}
