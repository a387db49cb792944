use std::fmt;

use crate::geometry::{DramGeometry, RowId};

/// The two physical DRAM cell polarities (paper section 2.1, Figure 2).
///
/// Because sense amplifiers are shared between complementary bitlines, half
/// the cell population stores logic `1` as "charged" and the other half
/// stores logic `0` as "charged". Charge leakage (and RowHammer-accelerated
/// leakage) therefore produces errors in opposite directions:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellType {
    /// Charged state = `1`; leakage errors flow `1 → 0`.
    True,
    /// Charged state = `0`; leakage errors flow `0 → 1`.
    Anti,
}

impl CellType {
    /// Logic value a fully *discharged* cell of this type reads as.
    ///
    /// This is what a cell decays to when refresh stops — the basis of both
    /// the cell-type profiler (section 2.2) and the coldboot guard
    /// (section 8).
    pub fn discharged_value(self) -> bool {
        match self {
            CellType::True => false,
            CellType::Anti => true,
        }
    }

    /// The opposite polarity.
    pub fn opposite(self) -> CellType {
        match self {
            CellType::True => CellType::Anti,
            CellType::Anti => CellType::True,
        }
    }
}

impl fmt::Display for CellType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellType::True => f.write_str("true-cell"),
            CellType::Anti => f.write_str("anti-cell"),
        }
    }
}

/// How cell polarities are laid out across the rows of a module.
///
/// DRAM rows are uniform in cell type (section 2.1), so the layout is a
/// function from row index to [`CellType`]. The paper reports two common
/// patterns, both represented here, plus uniform layouts used as analytical
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellLayout {
    /// True-cell and anti-cell rows alternate every `period_rows` rows;
    /// `first` is the polarity of row 0. `N = 512` is the commonly reported
    /// period (section 2.2).
    Alternating {
        /// Length of each run of same-type rows.
        period_rows: u64,
        /// Polarity of the first run.
        first: CellType,
    },
    /// Mostly true-cells with one anti-cell row every `anti_every` rows —
    /// the "1000:1" modules of section 2.2.
    TrueHeavy {
        /// Interval between anti-cell rows; e.g. 1001 gives a 1000:1 ratio.
        anti_every: u64,
    },
    /// Every row is true-cells.
    AllTrue,
    /// Every row is anti-cells (the pathological baseline of section 5,
    /// where a ZONE_PTP made of anti-cells is shown to be attackable in
    /// hours).
    AllAnti,
}

impl CellLayout {
    /// The conventional layout: alternation every 512 rows, true-cells first.
    pub fn alternating_512() -> Self {
        CellLayout::Alternating { period_rows: 512, first: CellType::True }
    }

    /// Cell type of a row under this layout.
    pub fn cell_type(self, row: RowId) -> CellType {
        match self {
            CellLayout::Alternating { period_rows, first } => {
                if (row.0 / period_rows).is_multiple_of(2) {
                    first
                } else {
                    first.opposite()
                }
            }
            CellLayout::TrueHeavy { anti_every } => {
                if anti_every > 0 && row.0 % anti_every == anti_every - 1 {
                    CellType::Anti
                } else {
                    CellType::True
                }
            }
            CellLayout::AllTrue => CellType::True,
            CellLayout::AllAnti => CellType::Anti,
        }
    }
}

/// A maximal run of consecutive same-type rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRegion {
    /// First row of the region (inclusive).
    pub start_row: RowId,
    /// One past the last row of the region (exclusive).
    pub end_row: RowId,
    /// Polarity of every row in the region.
    pub cell_type: CellType,
}

impl CellRegion {
    /// Number of rows in the region.
    pub fn rows(&self) -> u64 {
        self.end_row.0 - self.start_row.0
    }

    /// Whether `row` lies inside the region.
    pub fn contains(&self, row: RowId) -> bool {
        self.start_row <= row && row < self.end_row
    }
}

/// A per-row cell-type map for a module, with region summarization.
///
/// This is the artifact the system-level profiler produces and the CTA
/// allocator consumes: the OS only needs to know which physical row ranges
/// are true-cells to build `ZONE_TC` sub-zones (Figure 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTypeMap {
    types: Vec<CellType>,
    row_bytes: u64,
}

impl CellTypeMap {
    /// Builds the ground-truth map of a module from its layout.
    pub fn from_layout(geometry: &DramGeometry, layout: CellLayout) -> Self {
        let types = (0..geometry.total_rows()).map(|r| layout.cell_type(RowId(r))).collect();
        CellTypeMap { types, row_bytes: geometry.row_bytes() }
    }

    /// Builds a map from explicitly observed per-row types (as the profiler
    /// does).
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty.
    pub fn from_rows(types: Vec<CellType>, row_bytes: u64) -> Self {
        assert!(!types.is_empty(), "a cell-type map needs at least one row");
        CellTypeMap { types, row_bytes }
    }

    /// Number of rows covered.
    pub fn rows(&self) -> u64 {
        self.types.len() as u64
    }

    /// Row width in bytes used when converting regions to address ranges.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Cell type of `row`, or `None` if out of range.
    pub fn cell_type(&self, row: RowId) -> Option<CellType> {
        self.types.get(row.0 as usize).copied()
    }

    /// Maximal same-type regions in ascending row order.
    pub fn regions(&self) -> Vec<CellRegion> {
        let mut out = Vec::new();
        let mut start = 0u64;
        for i in 1..=self.types.len() {
            if i == self.types.len() || self.types[i] != self.types[start as usize] {
                out.push(CellRegion {
                    start_row: RowId(start),
                    end_row: RowId(i as u64),
                    cell_type: self.types[start as usize],
                });
                start = i as u64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::AddressMapping;

    #[test]
    fn discharged_values_are_opposite() {
        assert!(!CellType::True.discharged_value());
        assert!(CellType::Anti.discharged_value());
        assert_eq!(CellType::True.opposite(), CellType::Anti);
    }

    #[test]
    fn alternating_layout_switches_every_period() {
        let l = CellLayout::Alternating { period_rows: 4, first: CellType::True };
        assert_eq!(l.cell_type(RowId(0)), CellType::True);
        assert_eq!(l.cell_type(RowId(3)), CellType::True);
        assert_eq!(l.cell_type(RowId(4)), CellType::Anti);
        assert_eq!(l.cell_type(RowId(7)), CellType::Anti);
        assert_eq!(l.cell_type(RowId(8)), CellType::True);
    }

    #[test]
    fn true_heavy_layout_has_sparse_anti_rows() {
        let l = CellLayout::TrueHeavy { anti_every: 5 };
        let types: Vec<_> = (0..10).map(|r| l.cell_type(RowId(r))).collect();
        assert_eq!(types.iter().filter(|c| **c == CellType::Anti).count(), 2);
        assert_eq!(l.cell_type(RowId(4)), CellType::Anti);
        assert_eq!(l.cell_type(RowId(9)), CellType::Anti);
    }

    #[test]
    fn uniform_layouts() {
        assert_eq!(CellLayout::AllTrue.cell_type(RowId(1234)), CellType::True);
        assert_eq!(CellLayout::AllAnti.cell_type(RowId(0)), CellType::Anti);
    }

    fn map_4x4() -> CellTypeMap {
        let g = DramGeometry::new(1024, 16, 1, AddressMapping::RowLinear);
        CellTypeMap::from_layout(
            &g,
            CellLayout::Alternating { period_rows: 4, first: CellType::True },
        )
    }

    #[test]
    fn regions_are_maximal_and_cover() {
        let m = map_4x4();
        let regions = m.regions();
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[0].rows(), 4);
        assert_eq!(regions[0].cell_type, CellType::True);
        assert_eq!(regions[1].cell_type, CellType::Anti);
        let total: u64 = regions.iter().map(|r| r.rows()).sum();
        assert_eq!(total, m.rows());
    }

    #[test]
    fn region_contains() {
        let m = map_4x4();
        let r = m.regions()[1];
        assert!(r.contains(RowId(4)));
        assert!(r.contains(RowId(7)));
        assert!(!r.contains(RowId(8)));
        assert!(!r.contains(RowId(3)));
    }
}
