use std::fmt;

use crate::error::AllocError;

/// Page size in bytes (x86-64 base pages).
pub const PAGE_SIZE: u64 = 4096;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The page frame containing this address.
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 / PAGE_SIZE)
    }

    /// Whether the address is page-aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Byte offset within the page.
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(value: u64) -> Self {
        PhysAddr(value)
    }
}

/// A page frame number (physical address / [`PAGE_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl Pfn {
    /// First byte address of the frame.
    pub fn addr(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE)
    }

    /// The frame `count` frames after this one.
    pub fn offset(self, count: u64) -> Pfn {
        Pfn(self.0 + count)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn#{}", self.0)
    }
}

impl From<u64> for Pfn {
    fn from(value: u64) -> Self {
        Pfn(value)
    }
}

/// A table of `len` entries set to `fill`, or `None` if it cannot be
/// reserved in host memory.
pub(crate) fn reserved<T: Clone>(len: u64, fill: T) -> Option<Vec<T>> {
    let len = usize::try_from(len).ok()?;
    let mut table = Vec::new();
    table.try_reserve_exact(len).ok()?;
    table.resize(len, fill);
    Some(table)
}

/// A per-frame table (the simulator's `mem_map`): one `fill` entry for
/// each of `frames` frames, indexed by frame number.
///
/// # Errors
///
/// [`AllocError::FrameTableTooLarge`] if the table does not fit in host
/// memory — a typed error, never an abort.
pub fn frame_table<T: Clone>(frames: u64, fill: T) -> Result<Vec<T>, AllocError> {
    reserved(frames, fill).ok_or(AllocError::FrameTableTooLarge { frames })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_table_that_cannot_be_reserved_is_a_typed_error() {
        // Past `isize::MAX` bytes: refused before any allocator is asked.
        for frames in [u64::MAX, 1 << 62] {
            let err = frame_table(frames, 0u16).unwrap_err();
            assert_eq!(err, AllocError::FrameTableTooLarge { frames });
        }
        assert_eq!(frame_table(3, 7u8), Ok(vec![7, 7, 7]));
    }

    #[test]
    fn addr_pfn_round_trip() {
        let a = PhysAddr(3 * PAGE_SIZE + 17);
        assert_eq!(a.pfn(), Pfn(3));
        assert_eq!(a.page_offset(), 17);
        assert!(!a.is_page_aligned());
        assert_eq!(Pfn(3).addr(), PhysAddr(3 * PAGE_SIZE));
        assert!(Pfn(3).addr().is_page_aligned());
    }

    #[test]
    fn pfn_offset() {
        assert_eq!(Pfn(5).offset(3), Pfn(8));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PhysAddr(0x1000).to_string(), "0x1000");
        assert_eq!(Pfn(7).to_string(), "pfn#7");
    }
}
