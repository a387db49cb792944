use std::error::Error;
use std::fmt;

use cta_dram::DramError;
use cta_mem::{AllocError, PtLevel};

use crate::addr::VirtAddr;
use crate::kernel::Pid;

/// Why a virtual-address translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TranslateError {
    /// The entry at `level` is not present.
    NotPresent {
        /// Faulting address.
        va: VirtAddr,
        /// Level whose entry was empty.
        level: PtLevel,
    },
    /// A permission bit denied the access.
    Protection {
        /// Faulting address.
        va: VirtAddr,
        /// Level whose entry denied it.
        level: PtLevel,
        /// The access was a write.
        write: bool,
        /// The access came from user mode.
        user: bool,
    },
    /// A (possibly corrupted) entry pointed beyond physical memory.
    BadFrame {
        /// Faulting address.
        va: VirtAddr,
        /// Level of the bad entry.
        level: PtLevel,
        /// The out-of-range frame.
        pfn: u64,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotPresent { va, level } => {
                write!(f, "page fault at {va}: {level} entry not present")
            }
            TranslateError::Protection { va, level, write, user } => write!(
                f,
                "protection fault at {va} ({} {} access) at {level}",
                if *user { "user" } else { "kernel" },
                if *write { "write" } else { "read" },
            ),
            TranslateError::BadFrame { va, level, pfn } => {
                write!(f, "{level} entry for {va} points at out-of-range frame {pfn}")
            }
        }
    }
}

impl Error for TranslateError {}

/// Errors reported by the kernel substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VmError {
    /// Underlying DRAM error.
    Dram(DramError),
    /// Underlying allocation error.
    Alloc(AllocError),
    /// Translation fault.
    Translate(TranslateError),
    /// Unknown process.
    NoSuchProcess {
        /// The missing pid.
        pid: Pid,
    },
    /// Unknown file object.
    NoSuchFile,
    /// A mapping already exists at the address.
    AlreadyMapped {
        /// The conflicting address.
        va: VirtAddr,
    },
    /// No mapping exists at the address.
    NotMapped {
        /// The address.
        va: VirtAddr,
    },
    /// Address or length is not page-aligned.
    Unaligned {
        /// The offending value.
        value: u64,
    },
    /// The machine's memory size cannot back the requested system.
    BadMemorySize {
        /// The requested size in bytes.
        bytes: u64,
        /// What the size violates.
        reason: &'static str,
    },
    /// The DRAM cell-type alternation period is zero rows.
    ZeroCellPeriod,
    /// A range of `pages` pages at `va` runs past the end of the address
    /// space.
    RangeOverflow {
        /// Start of the range.
        va: VirtAddr,
        /// Length of the range in pages.
        pages: u64,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Dram(e) => write!(f, "dram: {e}"),
            VmError::Alloc(e) => write!(f, "alloc: {e}"),
            VmError::Translate(e) => write!(f, "translate: {e}"),
            VmError::NoSuchProcess { pid } => write!(f, "no such process {pid}"),
            VmError::NoSuchFile => f.write_str("no such file object"),
            VmError::AlreadyMapped { va } => write!(f, "address {va} is already mapped"),
            VmError::NotMapped { va } => write!(f, "address {va} is not mapped"),
            VmError::Unaligned { value } => write!(f, "{value:#x} is not page-aligned"),
            VmError::BadMemorySize { bytes, reason } => {
                write!(f, "memory size of {bytes} bytes {reason}")
            }
            VmError::ZeroCellPeriod => {
                f.write_str("cell-type alternation period must be at least one row")
            }
            VmError::RangeOverflow { va, pages } => {
                write!(f, "{pages} pages at {va} overflow the address space")
            }
        }
    }
}

impl Error for VmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VmError::Dram(e) => Some(e),
            VmError::Alloc(e) => Some(e),
            VmError::Translate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramError> for VmError {
    fn from(e: DramError) -> Self {
        VmError::Dram(e)
    }
}

impl From<AllocError> for VmError {
    fn from(e: AllocError) -> Self {
        VmError::Alloc(e)
    }
}

impl From<TranslateError> for VmError {
    fn from(e: TranslateError) -> Self {
        VmError::Translate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TranslateError::NotPresent { va: VirtAddr(0x1000), level: PtLevel::Pt };
        assert!(e.to_string().contains("0x1000"));
        let v: VmError = e.into();
        assert!(v.to_string().contains("translate"));
        assert!(v.source().is_some());
    }
}
