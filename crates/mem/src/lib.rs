//! Zoned buddy allocator substrate with Cell-Type-Aware (CTA) allocation.
//!
//! This crate reproduces the part of the Linux memory-management stack the
//! paper modifies (section 6.1): a **zoned binary buddy allocator** with GFP
//! flags and zonelist fallback, extended with
//!
//! - a new [`ZoneKind::Ptp`] zone at the **top** of physical memory that
//!   serves page-table pages only (Rule 2) and never falls back to other
//!   zones (Rule 1);
//! - [`PtpLayout`]: construction of `ZONE_PTP` from a profiled
//!   [`CellTypeMap`](cta_dram::CellTypeMap), restricting it to **true-cell
//!   sub-zones** (`ZONE_TC`, Figure 8) and reserving interleaved anti-cell
//!   rows (the section 6.2 capacity-loss accounting);
//! - multi-level PTP zones for the multiple-page-size extension
//!   (section 7), where each page-table level gets its own sub-zone and
//!   higher levels sit at higher physical addresses.
//!
//! # Example
//!
//! ```
//! use cta_mem::{GfpFlags, MemoryMap, ZonedAllocator};
//!
//! # fn main() -> Result<(), cta_mem::AllocError> {
//! // 64 MiB of physical memory, no CTA: the classic x86-64 zone layout.
//! let map = MemoryMap::x86_64(64 << 20);
//! let mut alloc = ZonedAllocator::new(map)?;
//! let page = alloc.alloc_pages(GfpFlags::KERNEL, 0)?;
//! alloc.free_pages(page, 0)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod buddy;
mod cta;
mod error;
mod frame;
mod gfp;
mod hyper;
mod screening;
mod stats;
mod zone;

pub use allocator::{MemoryMap, ZonedAllocator};
pub use buddy::{BuddyAllocator, MAX_ORDER};
pub use cta::{PtLevel, PtpLayout, PtpSpec};
pub use error::AllocError;
pub use frame::{frame_table, Pfn, PhysAddr, PAGE_SIZE};
pub use gfp::{GfpFlags, ZonePreference};
pub use hyper::{GuestPlan, GuestSpec, HypervisorPlan};
pub use screening::screen_page_size_bit;
pub use stats::{AllocStats, ZoneStats};
pub use zone::{SubZone, SubZoneSpec, Zone, ZoneKind};
