//! RowHammer attacks against the simulated kernel.
//!
//! Attack code in this crate plays by *attacker rules*: a malicious
//! user-mode process that can only map, read, write, and hammer memory it
//! owns, flush the TLB, and observe the contents of its own mappings. The
//! only simulator affordance is the hammer primitive itself
//! ([`hammer::HammerDriver`]), which stands in for the cache-flush +
//! alternating-access loops of real exploits.
//!
//! Implemented attack families:
//!
//! - [`spray::SprayAttack`] — the probabilistic PTE-spray privilege
//!   escalation of Seaborn & Dullien (Figure 3): spray page tables, hammer
//!   owned rows, scan for PTE-looking data, then run the full exploit chain
//!   to read the kernel secret;
//! - [`templating::TemplatingAttack`] — Drammer-style deterministic attack:
//!   template flippable bits in owned memory, free the chosen victim frame,
//!   massage a page table onto it, hammer once;
//! - [`brute::BruteForceCtaAttack`] — the paper's Algorithm 1, tailored to
//!   CTA systems, with the section 5 attack-time accounting;
//! - [`catalog()`] — the Table 1 registry of published RowHammer attacks.
//!
//! [`recording::record_campaign`] runs any of these across many seeds —
//! one freshly built kernel per trial, optionally in parallel with
//! deterministic, seed-ordered results (see `cta_parallel`). [`executor`]
//! is the long-running service form of the same contract: parent kernels
//! are booted once per (machine, seed, tenant) and every trial runs under
//! an undo journal on one, with campaigns fanned out across
//! a work-stealing worker pool and merged byte-identically to the serial
//! path. [`campaign`] holds the summary both paths fold outcomes into.
//!
//! Every attack returns an [`outcome::AttackOutcome`] scoring success by
//! *observed behavior* (kernel secret leaked / overwritten), cross-checked
//! against the [`cta_core::verify`] self-reference detector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod campaign;
pub mod catalog;
pub mod executor;
pub mod hammer;
pub mod outcome;
pub mod recording;
pub mod spray;
pub mod templating;

pub use brute::BruteForceCtaAttack;
pub use campaign::CampaignSummary;
pub use catalog::{catalog, KnownAttack, Platform, VictimData};
pub use executor::{
    CampaignExecutor, CampaignOutput, CampaignRequest, CampaignTicket, ExecutorConfig,
    ServiceStats, TrialIsolation,
};
pub use hammer::HammerDriver;
pub use outcome::{AttackOutcome, AttackTimeModel};
pub use recording::{
    record_campaign, replay_recording, verify_flip_accounting, RecordedAttack, Recording,
    RecordingError, RecordingSpec, ReplayReport, ReplayTarget, TrialRecord,
};
pub use spray::SprayAttack;
pub use templating::TemplatingAttack;
