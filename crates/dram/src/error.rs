use std::error::Error;
use std::fmt;

use crate::cells::CellType;
use crate::geometry::RowId;

/// Errors reported by the DRAM simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// A physical address (or address + length) fell outside the module.
    OutOfBounds {
        /// Offending physical address.
        addr: u64,
        /// Length of the attempted access in bytes.
        len: usize,
        /// Capacity of the module in bytes.
        capacity: u64,
    },
    /// A row index exceeded the number of rows in the module.
    RowOutOfBounds {
        /// Offending row.
        row: RowId,
        /// Number of rows in the module.
        rows: u64,
    },
    /// A row remap was requested between rows of different cell types, which
    /// would break sense-amplifier polarity (paper section 7).
    RemapTypeMismatch {
        /// The faulty row being replaced.
        faulty: RowId,
        /// Cell type of the faulty row.
        faulty_type: CellType,
        /// The proposed spare row.
        spare: RowId,
        /// Cell type of the spare row.
        spare_type: CellType,
    },
    /// A spare row was already in use as a remap target.
    SpareInUse {
        /// The busy spare row.
        spare: RowId,
    },
    /// An operation that requires refresh to be disabled (e.g. retention
    /// profiling) was attempted while auto-refresh is running, or vice versa.
    RefreshStateConflict {
        /// Whether refresh was enabled at the time of the call.
        enabled: bool,
    },
    /// A row is wider than [`MAX_ROW_BYTES`](crate::MAX_ROW_BYTES), past
    /// what the row models and the contents hash index.
    RowTooWide {
        /// The requested row size in bytes.
        row_bytes: u64,
    },
    /// The module's per-row tables (row slots and activation counters,
    /// allocated eagerly at construction) do not fit in host memory.
    RowTablesTooLarge {
        /// Number of rows in the module.
        rows: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::OutOfBounds { addr, len, capacity } => write!(
                f,
                "physical access [{addr:#x}, {:#x}) exceeds module capacity {capacity:#x}",
                addr + *len as u64
            ),
            DramError::RowOutOfBounds { row, rows } => {
                write!(f, "row {row} out of bounds (module has {rows} rows)")
            }
            DramError::RemapTypeMismatch { faulty, faulty_type, spare, spare_type } => write!(
                f,
                "cannot remap {faulty_type:?}-cell row {faulty} onto {spare_type:?}-cell row {spare}"
            ),
            DramError::SpareInUse { spare } => {
                write!(f, "spare row {spare} is already mapped to another faulty row")
            }
            DramError::RefreshStateConflict { enabled } => write!(
                f,
                "operation conflicts with refresh state (refresh currently {})",
                if *enabled { "enabled" } else { "disabled" }
            ),
            DramError::RowTooWide { row_bytes } => write!(
                f,
                "{row_bytes}-byte rows are wider than the {}-byte maximum",
                crate::MAX_ROW_BYTES
            ),
            DramError::RowTablesTooLarge { rows } => {
                write!(f, "cannot allocate the per-row tables of a {rows}-row module")
            }
        }
    }
}

impl Error for DramError {}
