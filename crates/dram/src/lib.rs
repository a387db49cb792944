//! Bit-accurate DRAM module simulator for studying RowHammer defenses.
//!
//! This crate is the hardware substrate of the `monotonic-cta` workspace. It
//! models a DRAM module at the level of detail needed to reproduce the ASPLOS
//! 2019 paper *Protecting Page Tables from RowHammer Attacks using Monotonic
//! Pointers in DRAM True-Cells*:
//!
//! - a bank/row/column **geometry** with physical-address mapping
//!   ([`DramGeometry`], [`AddressMapping`]);
//! - **true-cell / anti-cell layouts** ([`CellLayout`], [`CellType`]) —
//!   true-cells leak `1 → 0`, anti-cells leak `0 → 1`;
//! - a seeded, deterministic **RowHammer disturbance model**
//!   ([`DisturbanceParams`], [`FlipDirection`]) parameterized by the flip
//!   statistics measured by Kim et al. (ISCA 2014): a fraction `Pf` of cells
//!   is vulnerable, and of those a small `reverse_rate` flip against the
//!   leakage direction;
//! - **refresh** (64 ms default interval), **retention decay**, and a
//!   power-off remanence model for coldboot experiments;
//! - DRAM-manufacturer style **row remapping** that preserves cell type;
//! - a system-level **cell-type profiler** that identifies true/anti regions
//!   exactly the way the paper describes (write `1`s, disable refresh, wait
//!   past retention, read back).
//!
//! # Example
//!
//! ```
//! use cta_dram::{CellType, DramConfig, DramModule, RowId};
//!
//! # fn main() -> Result<(), cta_dram::DramError> {
//! let mut dram = DramModule::new(DramConfig::small_test());
//! // Store a pointer-like value in row 0 (a true-cell row by default).
//! dram.write_u64(0x40, 0x0110_0000)?;
//! assert_eq!(dram.read_u64(0x40)?, 0x0110_0000);
//! assert_eq!(dram.cell_type_of_addr(0x40)?, CellType::True);
//!
//! // Double-sided hammering of row 1 disturbs rows 0 and 2; any flips in
//! // row 0 can only clear bits, never set them.
//! dram.hammer_double_sided(RowId(1))?;
//! let after = dram.read_u64(0x40)?;
//! assert_eq!(after & !0x0110_0000, 0, "true-cell flips are monotonic");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitplane;
mod bounded;
mod cells;
mod config;
pub mod defense;
mod ecc;
mod error;
#[cfg(test)]
mod flip_differential;
mod fnv;
mod geometry;
mod journal;
mod module;
mod profiler;
mod remap;
mod retention;
mod rng;
mod stats;
mod store;
mod vuln;

pub use cells::{CellLayout, CellRegion, CellType, CellTypeMap};
pub use config::{DisturbanceParams, DramConfig, RetentionParams};
pub use defense::{
    ActivationCtx, AnvilSamplerDefense, AnvilSamplerParams, BlockHammerDefense, BlockHammerParams,
    DefenseSnapshot, DefenseStats, ObserverDefense, RowDefense, SoftTrrDefense, SoftTrrParams,
    Verdict,
};
pub use ecc::{EccRegion, EccResult, EccScrubStats, Secded};
pub use error::DramError;
pub use geometry::{AddressMapping, BankCoord, DramGeometry, RowId, MAX_ROWS, MAX_ROW_BYTES};
pub use module::DramModule;
pub use profiler::{
    profile_cell_types, profile_retention, CellTypeProfile, ProfilerConfig, RetentionCanary,
    RetentionProfile,
};
pub use remap::RemapTable;
pub use stats::{DramStats, FlipEvent, FlipLog};
pub use vuln::{FlipDirection, VulnerabilityModel, VulnerableBit};

/// Number of bits in a DRAM byte; used pervasively when converting between
/// byte offsets and cell (bit) indices.
pub const BITS_PER_BYTE: usize = 8;
