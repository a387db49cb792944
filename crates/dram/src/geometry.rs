use std::fmt;

use crate::error::DramError;

/// The widest row a module accepts: 256 MiB, or 2^31 bits, so a bit index
/// within a row fits in 31 bits and a row's word count in a `u32`. Real
/// rows are 1–8 KiB.
pub const MAX_ROW_BYTES: u64 = 1 << 28;

/// The most rows a module accepts: 2^32, so a row index fits in a `u32`.
pub const MAX_ROWS: u64 = 1 << 32;

/// Index of a DRAM row, global across all banks of the module.
///
/// Global row indices order rows by ascending physical address under the
/// module's [`AddressMapping`], which makes "the row holding physical address
/// `a`" a cheap division. Bank-local coordinates are available through
/// [`DramGeometry::bank_coord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl RowId {
    /// Returns the raw row index.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// Bank-local coordinates of a row: which bank it lives in and its index
/// inside that bank's two-dimensional cell array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankCoord {
    /// Bank index within the module.
    pub bank: u32,
    /// Row index within the bank.
    pub row_in_bank: u64,
}

/// How consecutive physical rows are distributed across banks.
///
/// RowHammer adjacency is a *bank-local* notion: an aggressor row disturbs
/// the rows physically adjacent to it in the same bank. Under
/// [`AddressMapping::RowLinear`] bank-local adjacency coincides with
/// physical-address adjacency; under [`AddressMapping::BankInterleaved`]
/// physically consecutive rows land in different banks (as real memory
/// controllers do for parallelism), and the two adjacent rows of an
/// aggressor are `banks` rows away in physical-address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// Rows of a bank occupy consecutive physical addresses.
    #[default]
    RowLinear,
    /// Consecutive physical rows rotate across banks.
    BankInterleaved,
}

/// Physical organization of a DRAM module.
///
/// The geometry is deliberately simple — `banks` equally sized banks of
/// `rows_per_bank` rows, each row `row_bytes` wide — which matches the
/// level of abstraction of the paper (section 2.1, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    row_bytes: u64,
    rows_per_bank: u64,
    banks: u32,
    mapping: AddressMapping,
}

impl DramGeometry {
    /// Creates a geometry from its dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` is not a power of two, or if any dimension is
    /// zero — those are configuration bugs, not runtime conditions.
    pub fn new(row_bytes: u64, rows_per_bank: u64, banks: u32, mapping: AddressMapping) -> Self {
        assert!(row_bytes.is_power_of_two(), "row size must be a power of two");
        assert!(rows_per_bank > 0, "rows_per_bank must be nonzero");
        assert!(banks > 0, "banks must be nonzero");
        DramGeometry { row_bytes, rows_per_bank, banks, mapping }
    }

    /// Row width in bytes (the paper uses 128 KiB rows throughout).
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u64 {
        self.rows_per_bank
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// The bank/row interleaving scheme.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// Total number of rows in the module.
    pub fn total_rows(&self) -> u64 {
        self.rows_per_bank * self.banks as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() * self.row_bytes
    }

    /// Global row holding physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if `addr` exceeds the capacity.
    pub fn row_of_addr(&self, addr: u64) -> Result<RowId, DramError> {
        if addr >= self.capacity_bytes() {
            return Err(DramError::OutOfBounds { addr, len: 1, capacity: self.capacity_bytes() });
        }
        Ok(RowId(addr / self.row_bytes))
    }

    /// Byte offset of `addr` within its row (the column address).
    pub fn col_of_addr(&self, addr: u64) -> u64 {
        addr % self.row_bytes
    }

    /// First physical address of `row`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] if `row` is not in the module.
    pub fn addr_of_row(&self, row: RowId) -> Result<u64, DramError> {
        self.check_row(row)?;
        Ok(row.0 * self.row_bytes)
    }

    /// Bank-local coordinates of a global row.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] if `row` is not in the module.
    pub fn bank_coord(&self, row: RowId) -> Result<BankCoord, DramError> {
        self.check_row(row)?;
        Ok(match self.mapping {
            AddressMapping::RowLinear => BankCoord {
                bank: (row.0 / self.rows_per_bank) as u32,
                row_in_bank: row.0 % self.rows_per_bank,
            },
            AddressMapping::BankInterleaved => BankCoord {
                bank: (row.0 % self.banks as u64) as u32,
                row_in_bank: row.0 / self.banks as u64,
            },
        })
    }

    /// Inverse of [`bank_coord`](Self::bank_coord).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] if the coordinates do not name a
    /// row of this module.
    pub fn row_of_bank_coord(&self, coord: BankCoord) -> Result<RowId, DramError> {
        let row = match self.mapping {
            AddressMapping::RowLinear => coord.bank as u64 * self.rows_per_bank + coord.row_in_bank,
            AddressMapping::BankInterleaved => {
                coord.row_in_bank * self.banks as u64 + coord.bank as u64
            }
        };
        let row = RowId(row);
        if coord.bank >= self.banks || coord.row_in_bank >= self.rows_per_bank {
            return Err(DramError::RowOutOfBounds { row, rows: self.total_rows() });
        }
        self.check_row(row)?;
        Ok(row)
    }

    /// The rows physically adjacent to `row` inside its bank — the victim
    /// rows a RowHammer aggressor disturbs (Figure 1).
    ///
    /// Edge rows of a bank have a single neighbor.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] if `row` is not in the module.
    pub fn adjacent_rows(&self, row: RowId) -> Result<Vec<RowId>, DramError> {
        let coord = self.bank_coord(row)?;
        let mut out = Vec::with_capacity(2);
        if coord.row_in_bank > 0 {
            out.push(
                self.row_of_bank_coord(BankCoord {
                    bank: coord.bank,
                    row_in_bank: coord.row_in_bank - 1,
                })
                .expect("neighbor row exists"),
            );
        }
        if coord.row_in_bank + 1 < self.rows_per_bank {
            out.push(
                self.row_of_bank_coord(BankCoord {
                    bank: coord.bank,
                    row_in_bank: coord.row_in_bank + 1,
                })
                .expect("neighbor row exists"),
            );
        }
        Ok(out)
    }

    /// The pair of aggressor rows that sandwich `victim` for double-sided
    /// hammering, when both exist.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] if `victim` is not in the module.
    pub fn sandwich_of(&self, victim: RowId) -> Result<Option<(RowId, RowId)>, DramError> {
        let neighbors = self.adjacent_rows(victim)?;
        Ok(match neighbors.as_slice() {
            [a, b] => Some((*a, *b)),
            _ => None,
        })
    }

    /// Number of bits (cells) in one row.
    pub fn bits_per_row(&self) -> u64 {
        self.row_bytes * crate::BITS_PER_BYTE as u64
    }

    fn check_row(&self, row: RowId) -> Result<(), DramError> {
        if row.0 >= self.total_rows() {
            return Err(DramError::RowOutOfBounds { row, rows: self.total_rows() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> DramGeometry {
        DramGeometry::new(1024, 64, 4, AddressMapping::RowLinear)
    }

    #[test]
    fn capacity_and_rows() {
        let g = geo();
        assert_eq!(g.total_rows(), 256);
        assert_eq!(g.capacity_bytes(), 256 * 1024);
        assert_eq!(g.bits_per_row(), 8192);
    }

    #[test]
    fn addr_row_round_trip() {
        let g = geo();
        for addr in [0u64, 1, 1023, 1024, 123_456, 256 * 1024 - 1] {
            let row = g.row_of_addr(addr).unwrap();
            let base = g.addr_of_row(row).unwrap();
            assert!(base <= addr && addr < base + g.row_bytes());
            assert_eq!(g.col_of_addr(addr), addr - base);
        }
    }

    #[test]
    fn out_of_bounds_addr_rejected() {
        let g = geo();
        assert!(matches!(g.row_of_addr(g.capacity_bytes()), Err(DramError::OutOfBounds { .. })));
    }

    #[test]
    fn row_linear_bank_coords() {
        let g = geo();
        assert_eq!(g.bank_coord(RowId(0)).unwrap(), BankCoord { bank: 0, row_in_bank: 0 });
        assert_eq!(g.bank_coord(RowId(63)).unwrap(), BankCoord { bank: 0, row_in_bank: 63 });
        assert_eq!(g.bank_coord(RowId(64)).unwrap(), BankCoord { bank: 1, row_in_bank: 0 });
        assert_eq!(g.bank_coord(RowId(255)).unwrap(), BankCoord { bank: 3, row_in_bank: 63 });
    }

    #[test]
    fn interleaved_bank_coords() {
        let g = DramGeometry::new(1024, 64, 4, AddressMapping::BankInterleaved);
        assert_eq!(g.bank_coord(RowId(0)).unwrap(), BankCoord { bank: 0, row_in_bank: 0 });
        assert_eq!(g.bank_coord(RowId(1)).unwrap(), BankCoord { bank: 1, row_in_bank: 0 });
        assert_eq!(g.bank_coord(RowId(4)).unwrap(), BankCoord { bank: 0, row_in_bank: 1 });
    }

    #[test]
    fn bank_coord_round_trip_both_mappings() {
        for mapping in [AddressMapping::RowLinear, AddressMapping::BankInterleaved] {
            let g = DramGeometry::new(1024, 64, 4, mapping);
            for r in 0..g.total_rows() {
                let coord = g.bank_coord(RowId(r)).unwrap();
                assert_eq!(g.row_of_bank_coord(coord).unwrap(), RowId(r));
            }
        }
    }

    #[test]
    fn adjacency_stays_within_bank() {
        let g = geo();
        // Row 63 is the last row of bank 0; row 64 is the first row of bank 1.
        // They are not neighbors even though their indices are consecutive.
        let n63 = g.adjacent_rows(RowId(63)).unwrap();
        assert_eq!(n63, vec![RowId(62)]);
        let n64 = g.adjacent_rows(RowId(64)).unwrap();
        assert_eq!(n64, vec![RowId(65)]);
    }

    #[test]
    fn interleaved_adjacency_strides_by_banks() {
        let g = DramGeometry::new(1024, 64, 4, AddressMapping::BankInterleaved);
        let n = g.adjacent_rows(RowId(5)).unwrap();
        assert_eq!(n, vec![RowId(1), RowId(9)]);
    }

    #[test]
    fn sandwich_requires_two_neighbors() {
        let g = geo();
        assert_eq!(g.sandwich_of(RowId(0)).unwrap(), None);
        assert_eq!(g.sandwich_of(RowId(1)).unwrap(), Some((RowId(0), RowId(2))));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_row_rejected() {
        DramGeometry::new(1000, 64, 4, AddressMapping::RowLinear);
    }
}
