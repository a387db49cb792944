use crate::cells::CellLayout;
use crate::geometry::{AddressMapping, DramGeometry};

/// Parameters of the RowHammer disturbance model.
///
/// The defaults reproduce the bit-flip statistics the paper builds its
/// security analysis on (section 5, citing Kim et al. ISCA 2014 and
/// Drammer): a fraction `pf` of cells is vulnerable to disturbance at all,
/// and a vulnerable cell flips in the leakage direction of its polarity
/// except with probability `reverse_rate` (voltage-coupling effects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisturbanceParams {
    /// Probability that a given cell is vulnerable to RowHammer (`Pf`).
    /// Paper default: `1e-4`.
    pub pf: f64,
    /// Probability that a vulnerable cell flips *against* its leakage
    /// direction (`P0→1` in true-cells / `P1→0` in anti-cells).
    /// Paper default: `0.002` (0.2%).
    pub reverse_rate: f64,
    /// Activations of an aggressor row within one refresh window required to
    /// fully disturb its neighbors (Kim et al. report ~139k; we default to a
    /// round 128k).
    pub hammer_threshold: u64,
    /// Row-cycle time in nanoseconds charged per activation.
    pub trc_ns: u64,
}

impl Default for DisturbanceParams {
    fn default() -> Self {
        DisturbanceParams {
            pf: 1e-4,
            reverse_rate: 0.002,
            hammer_threshold: 128 * 1024,
            trc_ns: 45,
        }
    }
}

impl DisturbanceParams {
    /// The paper's pessimistic future-scaling scenario (Table 3):
    /// `Pf` ×5 and reverse rate 0.5%.
    pub fn pessimistic() -> Self {
        DisturbanceParams { pf: 5e-4, reverse_rate: 0.005, ..Self::default() }
    }
}

/// Parameters of the retention-time model used for profiling and coldboot
/// experiments.
///
/// Retention times are per-cell, deterministic properties of a module.
/// Most cells retain data for seconds (section 2.1 cites milliseconds to
/// seconds); a small population of unusually strong cells retains far
/// longer, which the coldboot guard (section 8) must avoid relying on —
/// or rather, deliberately selects for its canaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionParams {
    /// Minimum retention of ordinary cells, nanoseconds.
    pub min_ns: u64,
    /// Maximum retention of ordinary cells, nanoseconds.
    pub max_ns: u64,
    /// Fraction of cells with unusually long retention.
    pub long_fraction: f64,
    /// Minimum retention of long-retention cells, nanoseconds.
    pub long_min_ns: u64,
    /// Maximum retention of long-retention cells, nanoseconds.
    pub long_max_ns: u64,
}

impl Default for RetentionParams {
    fn default() -> Self {
        RetentionParams {
            min_ns: 500_000_000,   // 0.5 s
            max_ns: 5_000_000_000, // 5 s
            long_fraction: 1e-3,
            long_min_ns: 30_000_000_000,  // 30 s
            long_max_ns: 120_000_000_000, // 120 s
        }
    }
}

/// Full configuration of a simulated DRAM module.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Physical organization.
    pub geometry: DramGeometry,
    /// True/anti-cell layout.
    pub layout: CellLayout,
    /// RowHammer model parameters.
    pub disturbance: DisturbanceParams,
    /// Retention model parameters.
    pub retention: RetentionParams,
    /// Auto-refresh interval in nanoseconds (JEDEC: 64 ms).
    pub refresh_interval_ns: u64,
    /// Module seed fixing the vulnerability and retention maps.
    pub seed: u64,
}

/// JEDEC refresh interval: 64 ms.
pub const REFRESH_INTERVAL_NS: u64 = 64_000_000;

impl DramConfig {
    /// A paper-scale module: 128 KiB rows, alternation every 512 rows.
    ///
    /// `capacity_bytes` must be a multiple of the row size; banks default
    /// to 8 with row-linear mapping so that physical adjacency equals
    /// hammer adjacency, matching the paper's presentation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is not a positive multiple of
    /// `8 banks × 128 KiB`.
    pub fn paper_scale(capacity_bytes: u64, seed: u64) -> Self {
        const ROW: u64 = 128 * 1024;
        const BANKS: u32 = 8;
        assert!(
            capacity_bytes > 0 && capacity_bytes.is_multiple_of(ROW * BANKS as u64),
            "capacity must be a positive multiple of banks*row_bytes"
        );
        let rows_per_bank = capacity_bytes / ROW / BANKS as u64;
        DramConfig {
            geometry: DramGeometry::new(ROW, rows_per_bank, BANKS, AddressMapping::RowLinear),
            layout: CellLayout::alternating_512(),
            disturbance: DisturbanceParams::default(),
            retention: RetentionParams::default(),
            refresh_interval_ns: REFRESH_INTERVAL_NS,
            seed,
        }
    }

    /// A small module for unit tests: 4 KiB rows, 1 bank, 64 rows
    /// (256 KiB total), alternation every 8 rows, aggressive `pf` so flips
    /// actually occur in small experiments.
    pub fn small_test() -> Self {
        DramConfig {
            geometry: DramGeometry::new(4096, 64, 1, AddressMapping::RowLinear),
            layout: CellLayout::Alternating { period_rows: 8, first: crate::CellType::True },
            disturbance: DisturbanceParams { pf: 0.02, ..DisturbanceParams::default() },
            retention: RetentionParams::default(),
            refresh_interval_ns: REFRESH_INTERVAL_NS,
            seed: 0xC0FFEE,
        }
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the cell layout.
    pub fn with_layout(mut self, layout: CellLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Builder-style override of the disturbance parameters.
    pub fn with_disturbance(mut self, disturbance: DisturbanceParams) -> Self {
        self.disturbance = disturbance;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellType;

    #[test]
    fn default_disturbance_matches_paper() {
        let d = DisturbanceParams::default();
        assert_eq!(d.pf, 1e-4);
        assert_eq!(d.reverse_rate, 0.002);
    }

    #[test]
    fn pessimistic_matches_table3() {
        let d = DisturbanceParams::pessimistic();
        assert_eq!(d.pf, 5e-4);
        assert_eq!(d.reverse_rate, 0.005);
    }

    #[test]
    fn paper_scale_dimensions() {
        let c = DramConfig::paper_scale(8 << 30, 1);
        assert_eq!(c.geometry.capacity_bytes(), 8 << 30);
        assert_eq!(c.geometry.row_bytes(), 128 * 1024);
        assert_eq!(c.geometry.banks(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn paper_scale_rejects_ragged_capacity() {
        DramConfig::paper_scale((8 << 30) + 1, 1);
    }

    #[test]
    fn builders_override() {
        let c = DramConfig::small_test().with_seed(9).with_layout(CellLayout::AllAnti);
        assert_eq!(c.seed, 9);
        assert_eq!(c.layout.cell_type(crate::RowId(0)), CellType::Anti);
    }
}
