//! Row storage for [`crate::DramModule`]: which rows exist, their cell
//! contents, and the per-row charge timestamps the retention model decays
//! from, indexed by *backing* row id (remap resolution happens above this
//! layer, in `DramModule`).

/// Mutable view of one materialized row: its cell bytes plus the charge
/// timestamp the retention model decays from.
pub(crate) struct RowMut<'a> {
    /// The row's cell contents, `row_bytes` long.
    pub(crate) bytes: &'a mut [u8],
    /// Simulated time the row's charge was last restored.
    pub(crate) last_charge_ns: &'a mut u64,
}

/// One materialized row: contents plus charge timestamp.
#[derive(Debug, Clone)]
struct RowBuf {
    bytes: Box<[u8]>,
    last_charge_ns: u64,
    /// The row has not changed since its last disturb pass, so a repeat
    /// pass fires nothing. Cleared by every [`SparseStore::materialize`].
    settled: bool,
}

/// Rows materialize on first write, so memory scales with the number of
/// *touched* rows and paper-scale modules (gigabytes of address space,
/// kilobytes of live data) stay cheap.
///
/// A never-written row reads as all zeros ([`Self::bytes`] returns `None`),
/// carries no charge timestamp (so refresh and decay skip it), and does not
/// count as materialized. [`Self::materialized_rows`] yields exactly the
/// rows with a charge timestamp, in ascending order: decay application
/// order is part of the determinism contract.
#[derive(Debug, Clone)]
pub(crate) struct SparseStore {
    rows: Vec<Option<RowBuf>>,
    row_bytes: usize,
}

impl SparseStore {
    /// Creates a store of `total_rows` rows of `row_bytes` each, all
    /// unmaterialized, or `None` if its row table does not fit in memory.
    pub(crate) fn try_new(total_rows: usize, row_bytes: usize) -> Option<Self> {
        let mut rows = Vec::new();
        rows.try_reserve_exact(total_rows).ok()?;
        rows.resize_with(total_rows, || None);
        Some(SparseStore { rows, row_bytes })
    }

    /// Read-only view of a row's contents, `None` if never materialized
    /// (all cells at logic `0`).
    pub(crate) fn bytes(&self, row: u64) -> Option<&[u8]> {
        self.rows[row as usize].as_ref().map(|r| &r.bytes[..])
    }

    /// Mutable view of a row, materializing it at all-zeros with charge
    /// timestamp `now_ns` on first use. The only mutable accessor, so it
    /// also unsettles the row: whoever takes the view may change it.
    pub(crate) fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        let row_bytes = self.row_bytes;
        let buf = self.rows[row as usize].get_or_insert_with(|| RowBuf {
            bytes: vec![0u8; row_bytes].into_boxed_slice(),
            last_charge_ns: now_ns,
            settled: false,
        });
        buf.settled = false;
        RowMut { bytes: &mut buf.bytes, last_charge_ns: &mut buf.last_charge_ns }
    }

    /// Whether the row is materialized and unchanged since [`Self::settle`].
    pub(crate) fn settled(&self, row: u64) -> bool {
        self.rows[row as usize].as_ref().is_some_and(|r| r.settled)
    }

    /// Marks a materialized row as just disturbed: until the next
    /// [`Self::materialize`], its vulnerable cells all hold their
    /// non-firing values.
    pub(crate) fn settle(&mut self, row: u64) {
        if let Some(buf) = &mut self.rows[row as usize] {
            buf.settled = true;
        }
    }

    /// The row's charge timestamp, `None` if never materialized.
    pub(crate) fn last_charge_ns(&self, row: u64) -> Option<u64> {
        self.rows[row as usize].as_ref().map(|r| r.last_charge_ns)
    }

    /// Restores the row's charge to `now_ns` if (and only if) it is
    /// materialized — an ordinary access or targeted refresh.
    pub(crate) fn touch(&mut self, row: u64, now_ns: u64) {
        if let Some(buf) = &mut self.rows[row as usize] {
            buf.last_charge_ns = now_ns;
        }
    }

    /// Restores every materialized row's charge to `now_ns` (refresh
    /// resuming after power-up).
    pub(crate) fn recharge_all(&mut self, now_ns: u64) {
        for buf in self.rows.iter_mut().flatten() {
            buf.last_charge_ns = now_ns;
        }
    }

    /// Backing ids of all materialized rows, ascending.
    pub(crate) fn materialized_rows(&self) -> Vec<u64> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|_| i as u64)).collect()
    }

    /// Number of materialized rows.
    pub(crate) fn materialized_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Returns the row to the never-materialized state. The undo journal
    /// uses this to roll back rows a trial materialized.
    pub(crate) fn unmaterialize(&mut self, row: u64) {
        self.rows[row as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SparseStore {
        SparseStore::try_new(8, 64).unwrap()
    }

    #[test]
    fn fresh_rows_read_as_unmaterialized() {
        let store = store();
        assert_eq!(store.bytes(3), None);
        assert_eq!(store.last_charge_ns(3), None);
        assert_eq!(store.materialized_count(), 0);
        assert!(store.materialized_rows().is_empty());
    }

    #[test]
    fn materialize_then_read_back() {
        let mut store = store();
        store.materialize(2, 100).bytes[5] = 0xAB;
        assert_eq!(store.bytes(2).unwrap()[5], 0xAB);
        assert_eq!(store.last_charge_ns(2), Some(100));
        assert_eq!(store.materialized_rows(), vec![2]);
        assert_eq!(store.materialized_count(), 1);
    }

    #[test]
    fn touch_only_affects_materialized_rows() {
        let mut store = store();
        store.touch(1, 500);
        assert_eq!(store.last_charge_ns(1), None);
        store.materialize(1, 100);
        store.touch(1, 500);
        assert_eq!(store.last_charge_ns(1), Some(500));
    }

    #[test]
    fn recharge_all_updates_every_materialized_row() {
        let mut store = store();
        store.materialize(0, 10);
        store.materialize(4, 20);
        store.recharge_all(999);
        assert_eq!(store.last_charge_ns(0), Some(999));
        assert_eq!(store.last_charge_ns(4), Some(999));
        assert_eq!(store.last_charge_ns(1), None);
    }

    #[test]
    fn materialized_rows_ascending() {
        let mut store = store();
        for row in [5u64, 1, 3] {
            store.materialize(row, 0);
        }
        assert_eq!(store.materialized_rows(), vec![1, 3, 5]);
    }

    #[test]
    fn materialize_unsettles_and_unmaterialize_forgets() {
        let mut store = store();
        store.settle(3);
        assert!(!store.settled(3), "an unmaterialized row cannot settle");
        store.materialize(3, 0);
        store.settle(3);
        assert!(store.settled(3));
        store.touch(3, 50);
        assert!(store.settled(3), "a recharge leaves the contents alone");
        store.materialize(3, 0);
        assert!(!store.settled(3), "a mutable view unsettles the row");
        store.settle(3);
        store.unmaterialize(3);
        store.materialize(3, 0);
        assert!(!store.settled(3));
    }

    #[test]
    fn unmaterialize_restores_the_fresh_row_state() {
        let mut store = store();
        store.materialize(2, 100).bytes[5] = 0xAB;
        store.materialize(4, 200).bytes[0] = 0xCD;
        store.unmaterialize(2);
        assert_eq!(store.bytes(2), None);
        assert_eq!(store.last_charge_ns(2), None);
        assert_eq!(store.materialized_rows(), vec![4]);
        assert_eq!(store.materialized_count(), 1);
        // Unmaterializing a never-touched row is a no-op.
        store.unmaterialize(7);
        assert_eq!(store.materialized_count(), 1);
    }
}
