//! System-level DRAM profiling (paper section 2.2).
//!
//! The cell type of every row can be determined from software alone: write
//! logic `1` to every cell, disable refresh, wait longer than the retention
//! time of ordinary cells, and read back. Cells that read `0` discharged
//! from the charged-`1` state — true-cells; cells that still read `1` are
//! holding the discharged-`0`... inverted — anti-cells. A majority vote per
//! row tolerates the sparse long-retention population.
//!
//! The same machinery profiles *retention* itself: the coldboot guard of
//! section 8 needs known long-retention true- and anti-cells as canaries.

use std::ops::Range;

use crate::cells::{CellType, CellTypeMap};
use crate::error::DramError;
use crate::geometry::RowId;
use crate::module::DramModule;

/// Configuration of a profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// How long to let cells decay with refresh disabled. Must exceed the
    /// retention of ordinary cells for reliable classification; the default
    /// (10 s) is double the default ordinary maximum.
    pub wait_ns: u64,
    /// Row range to profile, or `None` for the whole module.
    pub row_range: Option<Range<u64>>,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { wait_ns: 10_000_000_000, row_range: None }
    }
}

impl ProfilerConfig {
    /// Profiles only rows in `range`.
    pub fn with_rows(mut self, range: Range<u64>) -> Self {
        self.row_range = Some(range);
        self
    }
}

/// Result of a cell-type profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTypeProfile {
    /// The inferred per-row map.
    pub map: CellTypeMap,
    /// First row of the profiled range.
    pub first_row: RowId,
    /// Per-row count of bits that voted against the row's inferred type
    /// (long-retention stragglers). High counts indicate an unreliable wait
    /// time.
    pub dissenting_bits: Vec<u64>,
}

impl CellTypeProfile {
    /// Largest dissent observed in any row.
    pub fn max_dissent(&self) -> u64 {
        self.dissenting_bits.iter().copied().max().unwrap_or(0)
    }
}

/// Runs the write-1s / wait / read-back cell-type identification.
///
/// Refresh is disabled for the duration of the wait and re-enabled before
/// returning. Data in the profiled range is destroyed (as in reality), so
/// profiling is a boot-time, one-shot procedure.
///
/// # Errors
///
/// Returns [`DramError::RowOutOfBounds`] if the configured row range exceeds
/// the module.
pub fn profile_cell_types(
    module: &mut DramModule,
    config: &ProfilerConfig,
) -> Result<CellTypeProfile, DramError> {
    let total_rows = module.geometry().total_rows();
    let range = config.row_range.clone().unwrap_or(0..total_rows);
    if range.end > total_rows {
        return Err(DramError::RowOutOfBounds { row: RowId(range.end - 1), rows: total_rows });
    }
    let row_bytes = module.geometry().row_bytes() as usize;
    for row in range.start..range.end {
        let addr = module.geometry().addr_of_row(RowId(row))?;
        module.fill(addr, row_bytes, 0xFF)?;
    }
    module.disable_refresh();
    module.advance(config.wait_ns);
    let mut types = Vec::with_capacity((range.end - range.start) as usize);
    let mut dissent = Vec::with_capacity(types.capacity());
    for row in range.start..range.end {
        // The read applies the row's pending decay, which leaves a true-cell
        // row compact: all zeros but for its long-retention cells.
        let ones = module.read_row_ones(RowId(row))?;
        let bits = (row_bytes * crate::BITS_PER_BYTE) as u64;
        // Charged value was `1`. Decayed true-cells read 0, anti-cells 1.
        let inferred = if ones * 2 < bits { CellType::True } else { CellType::Anti };
        let votes_against = match inferred {
            CellType::True => ones,
            CellType::Anti => bits - ones,
        };
        types.push(inferred);
        dissent.push(votes_against);
    }
    module.enable_refresh();
    Ok(CellTypeProfile {
        map: CellTypeMap::from_rows(types, module.geometry().row_bytes()),
        first_row: RowId(range.start),
        dissenting_bits: dissent,
    })
}

/// A long-retention cell discovered by retention profiling, usable as a
/// coldboot canary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetentionCanary {
    /// The cell's row.
    pub row: RowId,
    /// Bit index within the row.
    pub bit: u64,
    /// Polarity of the row, hence the cell.
    pub cell_type: CellType,
}

/// Result of a retention profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionProfile {
    /// Cells that still held their charged value after the probe wait.
    pub long_cells: Vec<RetentionCanary>,
    /// The probe wait used, nanoseconds.
    pub probe_ns: u64,
}

impl RetentionProfile {
    /// Long cells of a given polarity.
    pub fn of_type(&self, cell_type: CellType) -> impl Iterator<Item = &RetentionCanary> {
        self.long_cells.iter().filter(move |c| c.cell_type == cell_type)
    }
}

/// Finds long-retention cells in `rows` by writing the charged pattern,
/// waiting `probe_ns` without refresh, and reading back survivors.
///
/// `probe_ns` should comfortably exceed ordinary retention (default
/// classification wait works well) but stay below the long-cell minimum you
/// want to certify.
///
/// # Errors
///
/// Returns [`DramError::RowOutOfBounds`] if `rows` exceeds the module.
pub fn profile_retention(
    module: &mut DramModule,
    rows: Range<u64>,
    probe_ns: u64,
) -> Result<RetentionProfile, DramError> {
    let total_rows = module.geometry().total_rows();
    if rows.end > total_rows {
        return Err(DramError::RowOutOfBounds { row: RowId(rows.end - 1), rows: total_rows });
    }
    let row_bytes = module.geometry().row_bytes() as usize;
    // Write the *charged* pattern per row polarity: 1s to true-cells, 0s to
    // anti-cells.
    for row in rows.start..rows.end {
        let cell_type = module.cell_type_of_row(RowId(row))?;
        let addr = module.geometry().addr_of_row(RowId(row))?;
        let pattern = match cell_type {
            CellType::True => 0xFF,
            CellType::Anti => 0x00,
        };
        module.fill(addr, row_bytes, pattern)?;
    }
    module.disable_refresh();
    module.advance(probe_ns);
    let mut long_cells = Vec::new();
    let mut data = vec![0u8; row_bytes];
    for row in rows.start..rows.end {
        let cell_type = module.cell_type_of_row(RowId(row))?;
        let addr = module.geometry().addr_of_row(RowId(row))?;
        module.read_into(addr, &mut data)?;
        let charged = !cell_type.discharged_value();
        for (byte_idx, byte) in data.iter().enumerate() {
            if (charged && *byte == 0) || (!charged && *byte == 0xFF) {
                continue; // fast skip: no survivors in this byte
            }
            for bit_in_byte in 0..8u64 {
                let value = byte >> bit_in_byte & 1 == 1;
                if value == charged {
                    long_cells.push(RetentionCanary {
                        row: RowId(row),
                        bit: byte_idx as u64 * 8 + bit_in_byte,
                        cell_type,
                    });
                }
            }
        }
    }
    module.enable_refresh();
    Ok(RetentionProfile { long_cells, probe_ns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    #[test]
    fn profiler_recovers_alternating_layout() {
        let mut m = DramModule::new(DramConfig::small_test());
        let profile = profile_cell_types(&mut m, &ProfilerConfig::default()).unwrap();
        let truth = m.ground_truth_cell_map();
        assert_eq!(profile.map, truth);
        assert!(m.refresh_enabled(), "profiler must restore refresh");
    }

    #[test]
    fn profiler_recovers_all_anti_layout() {
        let cfg = DramConfig::small_test().with_layout(crate::CellLayout::AllAnti);
        let mut m = DramModule::new(cfg);
        let profile = profile_cell_types(&mut m, &ProfilerConfig::default()).unwrap();
        assert!(profile.map.regions().iter().all(|r| r.cell_type == CellType::Anti));
    }

    #[test]
    fn profiler_row_range_subset() {
        let mut m = DramModule::new(DramConfig::small_test());
        let cfg = ProfilerConfig::default().with_rows(8..16);
        let profile = profile_cell_types(&mut m, &cfg).unwrap();
        assert_eq!(profile.map.rows(), 8);
        assert_eq!(profile.first_row, RowId(8));
        // Rows 8..16 are anti-cells in the small_test layout.
        assert!(profile.map.regions().iter().all(|r| r.cell_type == CellType::Anti));
    }

    #[test]
    fn profiler_rejects_out_of_range() {
        let mut m = DramModule::new(DramConfig::small_test());
        let cfg = ProfilerConfig::default().with_rows(0..1000);
        assert!(profile_cell_types(&mut m, &cfg).is_err());
    }

    #[test]
    fn dissent_is_bounded_by_long_cells() {
        let mut m = DramModule::new(DramConfig::small_test());
        let profile = profile_cell_types(&mut m, &ProfilerConfig::default()).unwrap();
        // long_fraction=1e-3 over 32768 bits/row ⇒ ≈33 expected dissenters.
        assert!(profile.max_dissent() < 200, "dissent {}", profile.max_dissent());
    }

    #[test]
    fn retention_profile_finds_sparse_long_cells() {
        let mut m = DramModule::new(DramConfig::small_test());
        let probe = m.config().retention.max_ns * 2;
        let profile = profile_retention(&mut m, 0..16, probe).unwrap();
        let bits_per_row = m.geometry().bits_per_row();
        let expected = 16.0 * bits_per_row as f64 * m.config().retention.long_fraction;
        let n = profile.long_cells.len() as f64;
        assert!(n > 0.0, "should find some long cells");
        assert!(n < expected * 4.0, "found {n}, expected about {expected}");
        // Both polarities represented (rows 0..8 true, 8..16 anti), usually.
        assert!(
            profile.of_type(CellType::True).count() + profile.of_type(CellType::Anti).count()
                == profile.long_cells.len()
        );
    }

    #[test]
    fn retention_canaries_survive_probe_but_not_forever() {
        let mut m = DramModule::new(DramConfig::small_test());
        let probe = m.config().retention.max_ns * 2;
        let profile = profile_retention(&mut m, 0..8, probe).unwrap();
        if profile.long_cells.is_empty() {
            return; // statistically possible on 8 rows; nothing to check
        }
        // Re-arm the canaries and power off past long retention: all decay.
        for c in &profile.long_cells {
            let addr = m.geometry().addr_of_row(c.row).unwrap() + c.bit / 8;
            m.write(addr, &[0xFF]).unwrap();
        }
        m.power_off(m.config().retention.long_max_ns + 1);
        for c in &profile.long_cells {
            let addr = m.geometry().addr_of_row(c.row).unwrap() + c.bit / 8;
            let byte = m.read(addr, 1).unwrap()[0];
            assert_eq!(byte >> (c.bit % 8) & 1, 0, "true canary should discharge to 0");
        }
    }
}
