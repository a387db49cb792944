//! Row storage for [`crate::DramModule`]: which rows exist, their cell
//! contents, and the per-row charge timestamps the retention model decays
//! from, indexed by *backing* row id (remap resolution happens above this
//! layer, in `DramModule`).

use std::cell::{Cell, RefCell};
use std::ops::Range;

use crate::fnv::{ContentsHasher, RowDigest};

/// Mutable view of one materialized row: its cell bytes plus the charge
/// timestamp the retention model decays from.
pub(crate) struct RowMut<'a> {
    /// The row's cell contents, `row_bytes` long.
    pub(crate) bytes: &'a mut [u8],
    /// Simulated time the row's charge was last restored.
    pub(crate) last_charge_ns: &'a mut u64,
}

/// One materialized row: contents plus charge timestamp.
#[derive(Clone)]
struct RowBuf {
    bytes: Box<[u8]>,
    last_charge_ns: u64,
    /// The row has not changed since its last disturb pass, so a repeat
    /// pass fires nothing. Cleared by every [`SparseStore::materialize`].
    settled: bool,
    /// The open journal holds this row's pre-image. Never set outside a
    /// journal: rollback replaces every row that set it with its
    /// pre-image, taken before the bit was set.
    saved: bool,
    /// Clean hashes of the row (see [`SparseStore::hash_row`]) since its
    /// last change outside a journal, counted up to 2: the second compiles
    /// its digest.
    clean_hashes: Cell<u8>,
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
///
/// Every change to a row — its bytes, its charge timestamp or its
/// existence — goes through one private funnel, so the store journals
/// itself: while a journal is open, a row's slot is saved before its
/// first change, and [`Self::journal_rollback`] moves the saved slots
/// back. Outside a journal the same funnel clears [`Self::checkpoints`]
/// and drops the changed row's digest.
#[derive(Clone)]
pub(crate) struct SparseStore {
    rows: Vec<Option<RowBuf>>,
    row_bytes: u32,
    /// Each row changed since [`Self::journal_begin`], once, with its slot
    /// as it was before that change; `None` while no journal is open.
    journal: Option<Vec<(u64, Option<RowBuf>)>>,
    /// `contents_hash` checkpoints: entry `i` is the hasher state before
    /// logical row `i` of the contents no journal has changed. Rollback
    /// restores those contents, so the checkpoints outlive a journal; a
    /// row change outside a journal clears them here, and an unjournaled
    /// remap clears them in the module. A `RefCell` because
    /// `contents_hash` takes `&self` and extends them lazily.
    pub(crate) checkpoints: RefCell<Vec<ContentsHasher>>,
    /// Row digests by backing row, allocated by the first compile; `None`
    /// for a row too mixed to digest. Like the checkpoints, a digest
    /// describes the row's contents as no journal has changed them: a
    /// journaled change leaves it, since the changed row is saved and
    /// hashes from its bytes until rollback restores the bytes the digest
    /// describes, and a change outside a journal drops it. A row the
    /// journal created is saved too, so an unmaterialized row has none.
    digests: RefCell<Vec<Option<Box<RowDigest>>>>,
}

impl SparseStore {
    /// Creates a store of `total_rows` rows of `row_bytes` each, all
    /// unmaterialized, or `None` if its row table does not fit in memory.
    pub(crate) fn try_new(total_rows: usize, row_bytes: u32) -> Option<Self> {
        let mut rows = Vec::new();
        rows.try_reserve_exact(total_rows).ok()?;
        rows.resize_with(total_rows, || None);
        Some(SparseStore {
            rows,
            row_bytes,
            journal: None,
            checkpoints: RefCell::default(),
            digests: RefCell::default(),
        })
    }

    /// Read-only view of a row's contents, `None` if never materialized
    /// (all cells at logic `0`).
    pub(crate) fn bytes(&self, row: u64) -> Option<&[u8]> {
        self.rows[row as usize].as_ref().map(|r| &r.bytes[..])
    }

    /// Mutable view of a row, materializing it at all-zeros with charge
    /// timestamp `now_ns` on first use. The only mutable view, so it also
    /// unsettles the row: whoever takes the view may change it.
    pub(crate) fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        if self.rows[row as usize].is_none() {
            self.create(row, 0, now_ns);
        }
        let buf = self.buf_mut(row).expect("materialized above");
        buf.settled = false;
        RowMut { bytes: &mut buf.bytes, last_charge_ns: &mut buf.last_charge_ns }
    }

    /// Fills columns `cols` of a row with `byte`, as a write through
    /// [`Self::materialize`] would. A never-materialized row that `cols`
    /// covers whole is created at `byte` instead of at zeros first.
    pub(crate) fn fill(&mut self, row: u64, now_ns: u64, cols: Range<usize>, byte: u8) {
        if cols.len() == self.row_bytes as usize && self.rows[row as usize].is_none() {
            self.create(row, byte, now_ns);
        } else {
            self.materialize(row, now_ns).bytes[cols].fill(byte);
        }
    }

    /// Whether the row is materialized and unchanged since [`Self::settle`].
    pub(crate) fn settled(&self, row: u64) -> bool {
        self.rows[row as usize].as_ref().is_some_and(|r| r.settled)
    }

    /// Marks a materialized row as just disturbed: until the next
    /// [`Self::materialize`], its vulnerable cells all hold their
    /// non-firing values.
    pub(crate) fn settle(&mut self, row: u64) {
        if let Some(buf) = self.buf_mut(row) {
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
        if let Some(buf) = self.buf_mut(row) {
            buf.last_charge_ns = now_ns;
        }
    }

    /// Restores every materialized row's charge to `now_ns` (refresh
    /// resuming after power-up).
    pub(crate) fn recharge_all(&mut self, now_ns: u64) {
        for row in 0..self.rows.len() as u64 {
            self.touch(row, now_ns);
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

    /// Feeds a row to `hasher`: a never-materialized row as zeros, and a
    /// materialized one from its bytes — unless a journal is open and has
    /// not saved the row. That clean row's second such hash compiles its
    /// digest, and from then on the digest stands in for its bytes, so a
    /// module hashed once (a single-use parent) compiles none.
    pub(crate) fn hash_row(&self, row: u64, hasher: &mut ContentsHasher) {
        let Some(buf) = &self.rows[row as usize] else {
            return hasher.zeros(self.row_bytes);
        };
        if self.journal.is_none() || buf.saved {
            return hasher.update(&buf.bytes);
        }
        let mut digests = self.digests.borrow_mut();
        match buf.clean_hashes.get() {
            0 => buf.clean_hashes.set(1),
            1 => {
                buf.clean_hashes.set(2);
                if digests.is_empty() {
                    digests.resize_with(self.rows.len(), || None);
                }
                digests[row as usize] = RowDigest::compile(&buf.bytes).map(Box::new);
            }
            _ => {}
        }
        match digests.get(row as usize).and_then(Option::as_deref) {
            Some(digest) => hasher.apply(digest),
            None => hasher.update(&buf.bytes),
        }
    }

    /// Number of rows holding a compiled digest.
    pub(crate) fn digested_count(&self) -> usize {
        self.digests.borrow().iter().flatten().count()
    }

    /// Opens a journal: from now on each row's slot is saved before its
    /// first change.
    pub(crate) fn journal_begin(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Closes the journal, moving every saved slot back: changed rows get
    /// their pre-image buffers (settled bit included), rows the journal
    /// materialized are unmaterialized again.
    pub(crate) fn journal_rollback(&mut self) {
        for (row, pre) in self.journal.take().expect("row store journal not open") {
            self.rows[row as usize] = pre;
        }
    }

    /// Backing ids of the rows changed under the open journal, in the
    /// order of their first change (none without a journal).
    pub(crate) fn journaled_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.journal.iter().flatten().map(|&(row, _)| row)
    }

    /// The funnel every change to a materialized row passes: saves the
    /// row's pre-image on its first change under a journal, and clears
    /// the hash checkpoints and the row's digest on a change outside one. `None` if the row was
    /// never materialized.
    #[inline]
    fn buf_mut(&mut self, row: u64) -> Option<&mut RowBuf> {
        let buf = self.rows[row as usize].as_mut()?;
        if !buf.saved {
            match &mut self.journal {
                Some(journal) => {
                    journal.push((row, Some(buf.clone())));
                    buf.saved = true;
                }
                None => {
                    self.checkpoints.get_mut().clear();
                    if let Some(digest) = self.digests.get_mut().get_mut(row as usize) {
                        *digest = None;
                    }
                    buf.clean_hashes.set(0);
                }
            }
        }
        Some(buf)
    }

    /// The funnel for a never-materialized row: creates it at `byte`
    /// throughout with charge timestamp `now_ns`, first saving its empty
    /// slot under a journal or clearing the hash checkpoints outside one.
    fn create(&mut self, row: u64, byte: u8, now_ns: u64) {
        match &mut self.journal {
            Some(journal) => journal.push((row, None)),
            None => self.checkpoints.get_mut().clear(),
        }
        self.rows[row as usize] = Some(RowBuf {
            bytes: vec![byte; self.row_bytes as usize].into_boxed_slice(),
            last_charge_ns: now_ns,
            settled: false,
            saved: self.journal.is_some(),
            clean_hashes: Cell::new(0),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SparseStore {
        SparseStore::try_new(8, 64).unwrap()
    }

    #[test]
    fn a_row_slot_stays_four_words() {
        // The row table is allocated for every row, materialized or not;
        // the digest counter fits in the slot's padding.
        assert_eq!(std::mem::size_of::<Option<RowBuf>>(), 32);
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
    fn materialize_unsettles_and_rollback_restores_the_settled_bit() {
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
        store.journal_begin();
        store.materialize(3, 0);
        store.materialize(5, 0);
        store.settle(5);
        store.journal_rollback();
        assert!(store.settled(3), "the settled bit travels with its pre-image");
        assert!(!store.settled(5), "a row the journal created is gone");
    }

    #[test]
    fn rollback_moves_every_saved_slot_back() {
        let mut store = store();
        store.materialize(2, 100).bytes[5] = 0xAB;
        store.materialize(4, 200).bytes[0] = 0xCD;
        store.journal_begin();
        store.materialize(2, 300).bytes[5] = 0x11;
        *store.materialize(2, 300).last_charge_ns = 300;
        store.touch(4, 400);
        store.materialize(6, 500).bytes[1] = 0xEF;
        store.recharge_all(600);
        assert_eq!(store.journaled_rows().collect::<Vec<_>>(), vec![2, 4, 6]);
        store.journal_rollback();
        assert_eq!(store.journaled_rows().count(), 0);
        assert_eq!(store.bytes(2).unwrap()[5], 0xAB);
        assert_eq!(store.last_charge_ns(2), Some(100));
        assert_eq!(store.last_charge_ns(4), Some(200));
        assert_eq!(store.bytes(6), None);
        assert_eq!(store.last_charge_ns(6), None);
        assert_eq!(store.materialized_rows(), vec![2, 4]);
        // A second journal saves the restored rows afresh.
        store.journal_begin();
        store.materialize(2, 700).bytes[5] = 0x22;
        store.journal_rollback();
        assert_eq!(store.bytes(2).unwrap()[5], 0xAB);
    }

    #[test]
    fn unwritten_rows_and_reads_are_not_journaled() {
        let mut store = store();
        store.materialize(1, 0);
        store.journal_begin();
        store.touch(3, 50);
        store.settle(3);
        store.recharge_all(60);
        assert_eq!(store.journaled_rows().collect::<Vec<_>>(), vec![1], "only the live row");
        store.journal_rollback();
        assert_eq!(store.materialized_rows(), vec![1]);
        assert_eq!(store.last_charge_ns(1), Some(0));
    }

    #[test]
    fn checkpoints_clear_on_a_change_outside_a_journal_only() {
        let mut store = store();
        store.materialize(1, 0);
        let stale = || vec![ContentsHasher::new(); 4];
        store.checkpoints.replace(stale());
        store.journal_begin();
        store.materialize(1, 10).bytes[0] = 1;
        store.fill(2, 10, 0..64, 0xFF);
        store.journal_rollback();
        assert_eq!(store.checkpoints.borrow().len(), 4, "a journaled change keeps them");
        let changes: [fn(&mut SparseStore); 4] = [
            |s| s.touch(1, 20),
            |s| s.fill(5, 20, 0..64, 0xFF),
            |s| {
                s.materialize(6, 20);
            },
            |s| s.recharge_all(30),
        ];
        for change in changes {
            store.checkpoints.replace(stale());
            change(&mut store);
            assert!(store.checkpoints.borrow().is_empty());
        }
    }

    #[test]
    fn fill_creates_a_fresh_row_at_the_fill_byte() {
        let mut store = store();
        store.journal_begin();
        store.fill(2, 100, 0..64, 0xA5);
        assert_eq!(store.bytes(2).unwrap(), &[0xA5; 64][..]);
        assert_eq!(store.last_charge_ns(2), Some(100));
        assert!(!store.settled(2));
        // A partial fill of a fresh row leaves the rest of it at zeros, and
        // a fill of a live row leaves its other columns alone.
        store.fill(3, 100, 8..16, 0x5A);
        let mut want = [0u8; 64];
        want[8..16].fill(0x5A);
        assert_eq!(store.bytes(3).unwrap(), &want[..]);
        store.fill(2, 200, 0..8, 0x00);
        assert_eq!(&store.bytes(2).unwrap()[..10], &[0, 0, 0, 0, 0, 0, 0, 0, 0xA5, 0xA5]);
        assert_eq!(store.last_charge_ns(2), Some(100), "a fill keeps the charge");
        store.journal_rollback();
        assert_eq!(store.materialized_count(), 0, "rollback forgets the created rows");
    }
}
