//! The repository benchmark: the campaign service (`CampaignExecutor`)
//! and the Table 4 harness (`Runner::compare_many`) driven through their
//! public APIs, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md`.

pub mod campaign;
pub mod clock;
pub mod digest;
pub mod layers;
pub mod plan;
pub mod report;
pub mod stats;
pub mod table4;
pub mod trace;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
