//! Hypervisor support for CTA (paper section 7).
//!
//! In a virtualized deployment the *hypervisor* owns the highest true-cell
//! physical addresses as `ZONE_HYPERVISOR` and hands each guest OS a
//! disjoint slice of it to use as that guest's `ZONE_PTP`. All regular
//! (guest data) allocations are served below the hypervisor zone. The
//! monotonicity argument then holds both *within* and *across* VMs: any
//! corrupted PTE pointer — in any guest — can only decrease, and every
//! page-table page of every guest lives above the shared mark, so no PTE
//! can be made to reference a page table of its own or of any other VM.

use std::fmt;
use std::ops::Range;

use cta_dram::CellTypeMap;

use crate::cta::{PtpLayout, PtpSpec};
use crate::error::AllocError;
use crate::frame::PAGE_SIZE;

/// A guest VM's request for page-table capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestSpec {
    /// Guest name (for reports).
    pub name: String,
    /// True-cell bytes of `ZONE_PTP` the guest needs (power of two).
    pub ptp_bytes: u64,
}

impl GuestSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, ptp_bytes: u64) -> Self {
        GuestSpec { name: name.into(), ptp_bytes }
    }
}

/// One guest's assignment out of `ZONE_HYPERVISOR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestPlan {
    /// Guest name.
    pub name: String,
    /// The guest's `ZONE_PTP` layout: its true-cell slice, with the
    /// *hypervisor-wide* low water mark (guest data must stay below the
    /// whole hypervisor zone, not merely below the guest's own slice).
    pub layout: PtpLayout,
}

/// The hypervisor's partition of the top of host physical memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypervisorPlan {
    host_layout: PtpLayout,
    guests: Vec<GuestPlan>,
}

impl HypervisorPlan {
    /// Builds the plan: reserve enough top-of-memory true-cell capacity for
    /// every guest, then carve disjoint slices in guest order (first guest
    /// lowest).
    ///
    /// # Errors
    ///
    /// [`AllocError::InsufficientTrueCells`] if the host lacks capacity.
    ///
    /// # Panics
    ///
    /// Panics if a guest's `ptp_bytes` is not a positive power of two or if
    /// `guests` is empty — configuration errors.
    pub fn build(
        map: &CellTypeMap,
        total_bytes: u64,
        guests: &[GuestSpec],
    ) -> Result<Self, AllocError> {
        assert!(!guests.is_empty(), "a hypervisor plan needs at least one guest");
        for g in guests {
            assert!(
                g.ptp_bytes.is_power_of_two() && g.ptp_bytes >= PAGE_SIZE,
                "guest {} ptp_bytes must be a power of two",
                g.name
            );
        }
        let needed: u64 = guests.iter().map(|g| g.ptp_bytes).sum();
        let zone_bytes = needed.next_power_of_two();
        let host_layout = PtpLayout::build(
            map,
            total_bytes,
            &PtpSpec { ptp_bytes: zone_bytes, multi_level: false, restrict_two_zeros: false },
        )?;
        // Carve slices from the host zone's true-cell ranges, ascending.
        let mut cursor: Vec<Range<u64>> =
            host_layout.subzones().iter().map(|(r, _)| r.clone()).collect();
        cursor.reverse(); // pop from the lowest range first
        let mut plans = Vec::with_capacity(guests.len());
        for guest in guests {
            let mut remaining = guest.ptp_bytes;
            let mut slice = Vec::new();
            while remaining > 0 {
                let Some(mut range) = cursor.pop() else {
                    return Err(AllocError::InsufficientTrueCells {
                        requested: needed,
                        available: needed - remaining,
                    });
                };
                let take = remaining.min(range.end - range.start);
                slice.push(range.start..range.start + take);
                remaining -= take;
                range.start += take;
                if range.start < range.end {
                    cursor.push(range);
                }
            }
            plans.push(GuestPlan {
                name: guest.name.clone(),
                layout: PtpLayout::manual(
                    slice,
                    host_layout.low_water_mark(),
                    total_bytes,
                    guest.ptp_bytes,
                ),
            });
        }
        Ok(HypervisorPlan { host_layout, guests: plans })
    }

    /// The whole `ZONE_HYPERVISOR` layout.
    pub fn host_layout(&self) -> &PtpLayout {
        &self.host_layout
    }

    /// The base of `ZONE_HYPERVISOR` — the system-wide low water mark every
    /// guest's data stays below.
    pub fn zone_base(&self) -> u64 {
        self.host_layout.low_water_mark()
    }

    /// Per-guest assignments, in the order given to [`build`](Self::build).
    pub fn guests(&self) -> &[GuestPlan] {
        &self.guests
    }

    /// Checks the plan's structural invariants; returns human-readable
    /// violations (empty = sound).
    pub fn check(&self, map: &CellTypeMap) -> Vec<String> {
        let mut problems = Vec::new();
        let base = self.zone_base();
        let mut all: Vec<(usize, Range<u64>)> = Vec::new();
        for (i, guest) in self.guests.iter().enumerate() {
            if guest.layout.low_water_mark() != base {
                problems.push(format!("{}: mark differs from hypervisor base", guest.name));
            }
            for (range, _) in guest.layout.subzones() {
                if range.start < base {
                    problems.push(format!("{}: slice below ZONE_HYPERVISOR", guest.name));
                }
                let row_bytes = map.row_bytes();
                let mut row = range.start / row_bytes;
                while row * row_bytes < range.end {
                    if map.cell_type(cta_dram::RowId(row)) != Some(cta_dram::CellType::True) {
                        problems.push(format!("{}: slice row {row} is not true-cells", guest.name));
                    }
                    row += 1;
                }
                all.push((i, range.clone()));
            }
        }
        for (i, a) in &all {
            for (j, b) in &all {
                if i < j && a.start < b.end && b.start < a.end {
                    problems.push(format!(
                        "guests {} and {} overlap at {:#x}",
                        self.guests[*i].name,
                        self.guests[*j].name,
                        a.start.max(b.start)
                    ));
                }
            }
        }
        problems
    }
}

impl fmt::Display for HypervisorPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ZONE_HYPERVISOR base {:#x}", self.zone_base())?;
        for guest in &self.guests {
            for (range, _) in guest.layout.subzones() {
                writeln!(f, "  {}: {:#x}..{:#x}", guest.name, range.start, range.end)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_dram::{AddressMapping, CellLayout, CellType, DramGeometry};

    fn map() -> CellTypeMap {
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        CellTypeMap::from_layout(
            &g,
            CellLayout::Alternating { period_rows: 64, first: CellType::True },
        )
    }

    fn guests() -> Vec<GuestSpec> {
        vec![
            GuestSpec::new("guest-a", 1 << 20),
            GuestSpec::new("guest-b", 2 << 20),
            GuestSpec::new("guest-c", 1 << 20),
        ]
    }

    #[test]
    fn plan_is_sound() {
        let map = map();
        let plan = HypervisorPlan::build(&map, 64 << 20, &guests()).unwrap();
        assert!(plan.check(&map).is_empty(), "{:?}", plan.check(&map));
        assert_eq!(plan.guests().len(), 3);
        // Capacity per guest is exactly as requested.
        for (spec, got) in guests().iter().zip(plan.guests()) {
            let total: u64 = got.layout.subzones().iter().map(|(r, _)| r.end - r.start).sum();
            assert_eq!(total, spec.ptp_bytes, "{}", spec.name);
        }
    }

    #[test]
    fn guests_are_ordered_and_disjoint() {
        let plan = HypervisorPlan::build(&map(), 64 << 20, &guests()).unwrap();
        let mut last_end = 0u64;
        for guest in plan.guests() {
            for (range, _) in guest.layout.subzones() {
                assert!(range.start >= last_end);
                last_end = range.end;
            }
        }
    }

    #[test]
    fn all_guest_marks_equal_zone_base() {
        let plan = HypervisorPlan::build(&map(), 64 << 20, &guests()).unwrap();
        for guest in plan.guests() {
            assert_eq!(guest.layout.low_water_mark(), plan.zone_base());
        }
    }

    #[test]
    fn insufficient_capacity_errors() {
        // An all-anti module has no true cells to host ZONE_HYPERVISOR.
        let g = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
        let anti = CellTypeMap::from_layout(&g, CellLayout::AllAnti);
        let guests = vec![GuestSpec::new("guest", 1 << 20)];
        assert!(matches!(
            HypervisorPlan::build(&anti, 64 << 20, &guests),
            Err(AllocError::InsufficientTrueCells { .. })
        ));
    }

    #[test]
    fn check_catches_tampered_plans() {
        let map = map();
        let mut plan = HypervisorPlan::build(&map, 64 << 20, &guests()).unwrap();
        // Tamper: move guest-a's slice below the base.
        let bad = PtpLayout::manual(
            std::iter::once(0..(1 << 20)).collect(),
            plan.zone_base(),
            64 << 20,
            1 << 20,
        );
        plan.guests[0].layout = bad;
        assert!(!plan.check(&map).is_empty());
    }

    #[test]
    fn display_mentions_every_guest() {
        let plan = HypervisorPlan::build(&map(), 64 << 20, &guests()).unwrap();
        let s = plan.to_string();
        for g in guests() {
            assert!(s.contains(&g.name));
        }
    }
}
