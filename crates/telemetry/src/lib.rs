//! Unified observability layer for the monotonic-CTA simulator.
//!
//! Every subsystem in the workspace counts things — DRAM activations and
//! disturbance flips, TLB hits and flushes, kernel page-table walks, buddy
//! and CTA allocator traffic, attack campaign outcomes. This crate gives
//! those counters one home:
//!
//! * [`Counters`] — a registry of named counter groups that any stat struct
//!   can snapshot itself into via the [`StatSource`] trait. Snapshots can be
//!   [`Counters::merge`]d (e.g. across parallel campaign shards) and
//!   [`Counters::diff`]ed (e.g. before/after a workload phase), and emit
//!   deterministic JSON via [`Counters::to_json`] / [`Counters::write_to`].
//! * [`RingLog`] — a bounded ring-buffer event log with an exact drop
//!   counter, replacing unbounded `Vec` event logs. The invariant
//!   `len() + dropped() == total_recorded()` means aggregate totals stay
//!   exact no matter how small the retained window is.
//! * [`json`] — a strict JSON parser (duplicate keys and non-finite
//!   numbers rejected) so CI can prove every emitted artifact is real
//!   JSON, not just JSON-shaped text.
//! * [`jsonl`] — JSON Lines streaming on top of the strict layer: one
//!   compact document per line, flushed per line, so a long-running
//!   service can emit per-campaign telemetry incrementally instead of
//!   one snapshot at shutdown.
//! * [`schema`] — shape validation on top of the parser: the universal
//!   snapshot envelope, per-binary required groups/keys with declared
//!   [`ValueKind`]s, and the executor's JSONL event shape, so a snapshot
//!   that silently lost a group or turned a counter into a float fails CI
//!   instead of misleading every downstream consumer.
//!
//! The crate is dependency-free (JSON is emitted by hand with `BTreeMap`
//! ordering) so every other crate in the workspace can depend on it without
//! widening the build graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod json;
pub mod jsonl;
mod ring;
pub mod schema;

pub use counters::{Counters, Group, StatSource, Value};
pub use json::{JsonError, JsonValue};
pub use jsonl::{JsonlError, JsonlWriter};
pub use ring::{RingLog, DEFAULT_LOG_CAPACITY};
pub use schema::{SchemaError, SnapshotSchema, ValueKind};
