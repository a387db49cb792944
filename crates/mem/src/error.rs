use std::error::Error;
use std::fmt;

use crate::frame::Pfn;
use crate::zone::ZoneKind;

/// Errors reported by the allocators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// No free block of the requested order in any eligible zone.
    OutOfMemory {
        /// The zone kind the request was ultimately charged against.
        zone: ZoneKind,
        /// Requested block order.
        order: u8,
    },
    /// A free was attempted for a block that is not currently allocated.
    NotAllocated {
        /// First frame of the supposed block.
        pfn: Pfn,
    },
    /// A free was attempted with the wrong order for the block.
    OrderMismatch {
        /// First frame of the block.
        pfn: Pfn,
        /// Order the block was allocated with.
        allocated: u8,
        /// Order passed to the free call.
        freed: u8,
    },
    /// A frame outside every zone was referenced.
    UnknownFrame {
        /// The frame.
        pfn: Pfn,
    },
    /// The requested order exceeds [`MAX_ORDER`](crate::MAX_ORDER).
    OrderTooLarge {
        /// Requested order.
        order: u8,
    },
    /// A `__GFP_PTP` request was made but the system has no `ZONE_PTP`
    /// (CTA is not enabled).
    NoPtpZone,
    /// A PTP spec asked for more true-cell capacity than exists above the
    /// feasible low water mark.
    InsufficientTrueCells {
        /// Bytes requested for `ZONE_PTP`.
        requested: u64,
        /// True-cell bytes available.
        available: u64,
    },
    /// A `ZONE_PTP` layout was requested with sizes it cannot have.
    BadPtpSize {
        /// Requested `ZONE_PTP` bytes.
        ptp_bytes: u64,
        /// Physical memory bytes.
        total_bytes: u64,
        /// What the sizes violate.
        reason: &'static str,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { zone, order } => {
                write!(f, "out of memory: no order-{order} block in {zone} or its fallbacks")
            }
            AllocError::NotAllocated { pfn } => write!(f, "{pfn} is not an allocated block"),
            AllocError::OrderMismatch { pfn, allocated, freed } => {
                write!(f, "{pfn} allocated at order {allocated} but freed at order {freed}")
            }
            AllocError::UnknownFrame { pfn } => write!(f, "{pfn} belongs to no zone"),
            AllocError::OrderTooLarge { order } => {
                write!(f, "order {order} exceeds MAX_ORDER {}", crate::MAX_ORDER)
            }
            AllocError::NoPtpZone => f.write_str("__GFP_PTP request but no ZONE_PTP configured"),
            AllocError::InsufficientTrueCells { requested, available } => write!(
                f,
                "ZONE_PTP wants {requested} bytes of true-cells but only {available} are available"
            ),
            AllocError::BadPtpSize { ptp_bytes, total_bytes, reason } => {
                write!(f, "a {ptp_bytes}-byte ZONE_PTP in {total_bytes} bytes of memory: {reason}")
            }
        }
    }
}

impl Error for AllocError {}
