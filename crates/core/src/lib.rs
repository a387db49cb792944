//! Cell-Type-Aware (CTA) memory allocation — the paper's contribution.
//!
//! This crate is the policy layer on top of the substrates:
//!
//! - [`mono`]: the **monotonicity property** — value evolution under
//!   direction-restricted bit flips, and the machinery to reason about it
//!   ([`mono::MonotonicValue`], [`mono::can_reach`]);
//! - [`lwm`]: **low-water-mark calculus** — PTP-indicator extraction and
//!   zero counting (the section 5 security parameters);
//! - [`verify`]: the **No Self-Reference verifier** — walks a live
//!   [`Kernel`](cta_vm::Kernel)'s page tables and checks both CTA system
//!   invariants plus the absence of PTE self-references, and an exhaustive
//!   small-model check of the No Self-Reference Theorem itself;
//! - [`builder`]: [`SystemBuilder`], a one-stop constructor for protected
//!   (or deliberately unprotected) simulated machines.
//!
//! # The defense in one paragraph
//!
//! A PTE-based privilege-escalation attack needs a corrupted PTE to point at
//! a page-table page of the same process (*PTE self-reference*). CTA places
//! all page tables above a physical low water mark `P`, in DRAM true-cells
//! only, and all data below `P`. True-cell bit flips are (within measured
//! tolerances) `1→0`, so a corrupted pointer value can only *decrease*:
//! γ(p) ≤ p < P, while every PTE lives at addresses ≥ P. No reachable
//! corruption produces a self-reference — see
//! [`verify::check_theorem_exhaustive`] for the machine-checked small-model
//! version of the paper's proof.
//!
//! # Example
//!
//! ```
//! use cta_core::builder::SystemBuilder;
//! use cta_core::verify::verify_system;
//!
//! # fn main() -> Result<(), cta_vm::VmError> {
//! let mut kernel = SystemBuilder::small_test().protected(true).build()?;
//! let pid = kernel.create_process(false)?;
//! kernel.mmap_anonymous(pid, cta_vm::VirtAddr(0x40_0000), 0x4000, true)?;
//! let report = verify_system(&kernel)?;
//! assert!(report.is_clean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod defense;
pub mod lwm;
pub mod mono;
pub mod screening;
pub mod verify;

pub use builder::SystemBuilder;
pub use defense::{CattPartition, DefenseSpec};
pub use lwm::PtpIndicator;
pub use mono::{can_reach, MonotonicValue};
pub use screening::screen_page_size_bit;
pub use verify::{verify_system, VerifyReport, Violation};
