//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a runnable
//! regenerator under `src/bin/` (see `DESIGN.md` section 5 and
//! `EXPERIMENTS.md` for the index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `exp-table1` | Table 1 (attack catalog) |
//! | `exp-table2` | Table 2 (exploitable PTEs + attack time) |
//! | `exp-table3` | Table 3 (pessimistic scaling) |
//! | `exp-table4` | Table 4 (workload overhead) |
//! | `exp-fig1` | Figure 1 (bank organization + victim rows) |
//! | `exp-fig2` | Figure 2 (cell-type identification) |
//! | `exp-fig3` | Figure 3 (end-to-end privilege escalation) |
//! | `exp-fig4` | Figure 4 (low-water-mark placement) |
//! | `exp-fig5` | Figure 5 (monotonic-pointer corruption directions) |
//! | `exp-fig6` | Figure 6 (zone layouts) |
//! | `exp-fig7` | Figure 7 (buddy allocator dispatch under CTA) |
//! | `exp-fig8` | Figure 8 (ZONE_TC sub-zone map) |
//! | `exp-anti-baseline` | §5 anti-cell ZONE_PTP baseline |
//! | `exp-capacity` | §6.2 capacity-loss model |
//! | `exp-multilevel` | §7 multi-level PTP zones |
//! | `exp-hypervisor` | §7 VM support (`ZONE_HYPERVISOR`) |
//! | `exp-ext` | §8 extensions (permvec / coldboot / popcount) |
//! | `exp-ecc` | §2.3 context: SECDED vs RowHammer |
//! | `exp-anvil` | §5 coupling: CTA + activity detection |
//! | `exp-catt` | §2.5 baseline: CATT and its two bypasses |
//! | `exp-matrix` | attacks × defenses × cell layouts cross-product |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use cta_core::{DefenseSpec, SystemBuilder};
use cta_dram::DisturbanceParams;
use cta_telemetry::Counters;
use cta_vm::Kernel;

/// Prints a section header in the experiment binaries' house style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a key/value line.
pub fn kv(key: &str, value: impl std::fmt::Display) {
    println!("  {key:<44} {value}");
}

/// The standard small machine used by end-to-end attack experiments:
/// 8 MiB DRAM, 4 KiB rows, alternation every 64 rows, elevated `pf` so
/// flips are observable at simulation scale.
pub fn standard_builder(seed: u64, protected: bool) -> SystemBuilder {
    SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(seed)
        .protected(protected)
        .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
}

/// Builds the standard machine.
///
/// # Panics
///
/// Panics if the machine cannot boot — experiment binaries treat that as
/// fatal configuration error.
pub fn standard_machine(seed: u64, protected: bool) -> Kernel {
    standard_builder(seed, protected).build().expect("machine boots")
}

/// The standard machine with a software defense attached — what the
/// defense-facing experiments (`exp-catt`, `exp-anvil`, `exp-matrix`)
/// share instead of hand-rolling kernel configs per binary.
pub fn defended_builder(seed: u64, protected: bool, defense: DefenseSpec) -> SystemBuilder {
    standard_builder(seed, protected).defense(defense)
}

/// Directory the experiment binaries write telemetry snapshots into:
/// `$CTA_TELEMETRY_DIR` when set, otherwise `telemetry/` at the repo root.
pub fn telemetry_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CTA_TELEMETRY_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR = <repo>/crates/bench, baked in at compile time.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("telemetry")
}

/// Directory holding the golden campaign recordings the replay gate
/// verifies: `$CTA_RECORDINGS_DIR` when set, otherwise
/// `fixtures/recordings/` at the repo root.
pub fn recordings_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CTA_RECORDINGS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("fixtures").join("recordings")
}

/// Writes `counters` to `<telemetry_dir>/<label>.telemetry.json` and prints
/// the path, so every experiment run leaves a machine-readable artifact
/// next to its human-readable output.
///
/// # Panics
///
/// Panics if the snapshot cannot be written — experiment binaries treat an
/// unwritable results directory as a fatal configuration error.
pub fn emit_telemetry(counters: &Counters) -> PathBuf {
    let path = telemetry_dir().join(format!("{}.telemetry.json", counters.label()));
    counters.write_to(&path).expect("telemetry snapshot is writable");
    let shown = path.canonicalize().unwrap_or_else(|_| path.clone());
    println!("\ntelemetry: {}", shown.display());
    path
}
