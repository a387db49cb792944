//! Broader applications of cell-type monotonicity (paper section 8).
//!
//! Beyond page tables, the monotonicity property protects any data whose
//! *dangerous* corruption direction is known:
//!
//! - [`permvec`] — permission vectors placed in true-cells can lose rights
//!   (availability loss) but essentially never gain them (confidentiality
//!   stays intact);
//! - [`coldboot`] — long-retention canary cells detect DRAM remanence at
//!   boot, defeating coldboot key-recovery attacks;
//! - [`popcount`] — a one-instruction error-detection code: data in
//!   true-cells (weight can only drop), its hamming weight in anti-cells
//!   (stored weight can only rise), so corruption of either side produces a
//!   detectable mismatch with high probability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coldboot;
pub mod permvec;
pub mod popcount;

pub use coldboot::{BootDecision, ColdbootGuard};
pub use permvec::{Permission, PermissionStore, PermissionVector};
pub use popcount::{hamming_weight, PopcountCode, Verdict};
