//! Row storage for [`crate::DramModule`]: which rows exist, their cell
//! contents, and the per-row charge timestamps the retention model decays
//! from, indexed by *backing* row id (remap resolution happens above this
//! layer, in `DramModule`).
//!
//! Row contents are copy-on-write: a row holds an `Rc<[u8]>`, and a
//! journal pre-image, a fork and a whole-row fill share it; [`unshare`]
//! copies it on the first change. So a fork is O(rows) reference bumps,
//! not row copies, and saving a pre-image copies no bytes. Buffers a
//! rollback frees go to a per-thread spare list that [`unshare`] takes
//! from before it allocates, so a steady-state journaled trial allocates
//! no row buffer.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use crate::fnv::{ContentsHasher, RowDigest};

/// The row buffers rollbacks on this thread released, for [`unshare`] to
/// reuse, and a count of the buffers the thread allocated.
struct Spares {
    buffers: Vec<Rc<[u8]>>,
    /// The most buffers one rollback on this thread has released: the
    /// bound on `buffers`.
    cap: usize,
    allocated: u64,
}

thread_local! {
    static SPARES: RefCell<Spares> =
        const { RefCell::new(Spares { buffers: Vec::new(), cap: 0, allocated: 0 }) };
}

/// Row buffers the calling thread has allocated: copies made on a row's
/// first change with no spare buffer to reuse, and each store's shared
/// fill buffers. Per thread, so a trial's count is exact whatever other
/// threads run.
pub fn row_buffers_allocated() -> u64 {
    SPARES.with_borrow(|spares| spares.allocated)
}

/// A spare row buffer of `len` bytes from the thread's list, or `None`,
/// counted as the allocation the caller then makes.
fn take_spare(len: usize) -> Option<Rc<[u8]>> {
    SPARES.with_borrow_mut(|spares| {
        let i = spares.buffers.iter().rposition(|b| b.len() == len);
        if i.is_none() {
            spares.allocated += 1;
        }
        i.map(|i| spares.buffers.swap_remove(i))
    })
}

/// The copying view of a row's contents: the row's own buffer, copied
/// first (into a spare buffer if the thread has one) if anything else
/// shares it. Take it only to change a byte; reads go through the `Rc`.
pub(crate) fn unshare(bytes: &mut Rc<[u8]>) -> &mut [u8] {
    if Rc::strong_count(bytes) > 1 {
        *bytes = match take_spare(bytes.len()) {
            Some(mut spare) => {
                Rc::get_mut(&mut spare).expect("spares are unshared").copy_from_slice(bytes);
                spare
            }
            None => Rc::from(&bytes[..]),
        };
    }
    Rc::get_mut(bytes).expect("a row buffer nothing else shares")
}

/// Mutable view of one materialized row: its cell bytes plus the charge
/// timestamp the retention model decays from.
pub(crate) struct RowMut<'a> {
    /// The row's cell contents, `row_bytes` long, possibly shared: change
    /// them through [`unshare`].
    pub(crate) bytes: &'a mut Rc<[u8]>,
    /// Simulated time the row's charge was last restored.
    pub(crate) last_charge_ns: &'a mut u64,
}

/// One materialized row: contents plus charge timestamp.
#[derive(Clone)]
struct RowBuf {
    bytes: Rc<[u8]>,
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
/// kilobytes of live data) stay cheap; rows holding one byte throughout
/// share one buffer per fill byte.
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
/// first change (sharing the row's buffer), and
/// [`Self::journal_rollback`] moves the saved slots back. Outside a
/// journal the same funnel clears [`Self::checkpoints`] and drops the
/// changed row's digest.
#[derive(Clone)]
pub(crate) struct SparseStore {
    rows: Vec<Option<RowBuf>>,
    row_bytes: u32,
    /// One shared buffer per fill byte a whole-row fill has used.
    fills: Vec<Rc<[u8]>>,
    /// Whether a journal is open.
    journaling: bool,
    /// How many fill buffers the store had at [`Self::journal_begin`]:
    /// rollback drops the ones the trial added.
    journal_fills: usize,
    /// Each row changed since [`Self::journal_begin`], once, with its slot
    /// as it was before that change; empty while no journal is open, with
    /// its capacity kept for the next journal.
    journal: Vec<(u64, Option<RowBuf>)>,
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
            fills: Vec::new(),
            journaling: false,
            journal_fills: 0,
            journal: Vec::new(),
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
    /// [`Self::materialize`] would. A fill that covers the whole row makes
    /// it share the store's buffer of `byte`, unless the row's own buffer
    /// is unshared: that one is filled in place and kept.
    pub(crate) fn fill(&mut self, row: u64, now_ns: u64, cols: Range<usize>, byte: u8) {
        if cols.len() != self.row_bytes as usize {
            unshare(self.materialize(row, now_ns).bytes)[cols].fill(byte);
            return;
        }
        if self.rows[row as usize].is_none() {
            return self.create(row, byte, now_ns);
        }
        let shared = self.fill_buffer(byte);
        let buf = self.buf_mut(row).expect("materialized row");
        buf.settled = false;
        match Rc::get_mut(&mut buf.bytes) {
            Some(own) => own.fill(byte),
            None => buf.bytes = shared,
        }
    }

    /// The store's shared row buffer holding `byte` throughout.
    fn fill_buffer(&mut self, byte: u8) -> Rc<[u8]> {
        if let Some(buf) = self.fills.iter().find(|b| b[0] == byte) {
            return Rc::clone(buf);
        }
        let len = self.row_bytes as usize;
        let buf = match take_spare(len) {
            Some(mut spare) => {
                Rc::get_mut(&mut spare).expect("spares are unshared").fill(byte);
                spare
            }
            None => std::iter::repeat_n(byte, len).collect(),
        };
        self.fills.push(Rc::clone(&buf));
        buf
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

    /// Bytes of row contents the store holds — its rows, the open
    /// journal's pre-images and its fill buffers — counting each distinct
    /// buffer once.
    pub(crate) fn buffer_bytes(&self) -> usize {
        let saved = self.journal.iter().filter_map(|(_, pre)| pre.as_ref());
        let mut buffers: Vec<(*const u8, usize)> = (self.rows.iter().flatten().chain(saved))
            .map(|r| &r.bytes)
            .chain(&self.fills)
            .map(|b| (b.as_ptr(), b.len()))
            .collect();
        buffers.sort_unstable();
        buffers.dedup();
        buffers.iter().map(|&(_, len)| len).sum()
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
        if !self.journaling || buf.saved {
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

    /// The buffer a materialized row holds.
    #[cfg(test)]
    pub(crate) fn buffer(&self, row: u64) -> &Rc<[u8]> {
        &self.rows[row as usize].as_ref().expect("a materialized row").bytes
    }

    /// Number of rows holding a compiled digest.
    pub(crate) fn digested_count(&self) -> usize {
        self.digests.borrow().iter().flatten().count()
    }

    /// Opens a journal: from now on each row's slot is saved before its
    /// first change.
    pub(crate) fn journal_begin(&mut self) {
        assert!(!self.journaling, "row store journal already open");
        self.journaling = true;
        self.journal_fills = self.fills.len();
    }

    /// Closes the journal, moving every saved slot back: changed rows get
    /// their pre-images (settled bit included), rows the journal
    /// materialized are unmaterialized again, and fill buffers the journal
    /// added are dropped, so the store holds exactly the buffers it held at
    /// [`Self::journal_begin`]. The buffers only the trial held go to the
    /// thread's spare list, which keeps at most as many as one rollback on
    /// the thread has released.
    pub(crate) fn journal_rollback(&mut self) {
        assert!(self.journaling, "row store journal not open");
        self.journaling = false;
        let unshared = |buf: &Rc<[u8]>| Rc::strong_count(buf) == 1;
        SPARES.with_borrow_mut(|spares| {
            let before = spares.buffers.len();
            for (row, pre) in self.journal.drain(..) {
                let trial = std::mem::replace(&mut self.rows[row as usize], pre);
                spares.buffers.extend(trial.map(|buf| buf.bytes).filter(unshared));
            }
            // After the rows, so a fill buffer only the trial's rows shared
            // is unshared by now.
            spares.buffers.extend(self.fills.drain(self.journal_fills..).filter(unshared));
            spares.cap = spares.cap.max(spares.buffers.len() - before);
            spares.buffers.truncate(spares.cap);
        });
    }

    /// Backing ids of the rows changed under the open journal, in the
    /// order of their first change (none without a journal).
    pub(crate) fn journaled_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.journal.iter().map(|&(row, _)| row)
    }

    /// The funnel every change to a materialized row passes: saves the
    /// row's pre-image (sharing its buffer) on its first change under a
    /// journal, and clears the hash checkpoints and the row's digest on a
    /// change outside one. `None` if the row was never materialized.
    #[inline]
    fn buf_mut(&mut self, row: u64) -> Option<&mut RowBuf> {
        let buf = self.rows[row as usize].as_mut()?;
        if !buf.saved {
            if self.journaling {
                self.journal.push((row, Some(buf.clone())));
                buf.saved = true;
            } else {
                self.checkpoints.get_mut().clear();
                if let Some(digest) = self.digests.get_mut().get_mut(row as usize) {
                    *digest = None;
                }
                buf.clean_hashes.set(0);
            }
        }
        Some(buf)
    }

    /// The funnel for a never-materialized row: creates it sharing the
    /// fill buffer of `byte`, with charge timestamp `now_ns`, first saving
    /// its empty slot under a journal or clearing the hash checkpoints
    /// outside one.
    fn create(&mut self, row: u64, byte: u8, now_ns: u64) {
        if self.journaling {
            self.journal.push((row, None));
        } else {
            self.checkpoints.get_mut().clear();
        }
        self.rows[row as usize] = Some(RowBuf {
            bytes: self.fill_buffer(byte),
            last_charge_ns: now_ns,
            settled: false,
            saved: self.journaling,
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

    /// Writes one byte of a row through the copying view.
    fn write(store: &mut SparseStore, row: u64, now_ns: u64, col: usize, byte: u8) {
        unshare(store.materialize(row, now_ns).bytes)[col] = byte;
    }

    #[test]
    fn a_row_slot_stays_four_words() {
        // The row table is allocated for every row, materialized or not;
        // the digest counter fits in the slot's padding.
        assert_eq!(std::mem::size_of::<Option<RowBuf>>(), 32);
    }

    #[test]
    fn a_whole_row_fill_shares_and_a_write_unshares_only_its_row() {
        let mut store = store();
        for row in [1, 2, 3] {
            store.fill(row, 0, 0..64, 0xFF);
        }
        store.fill(4, 0, 0..64, 0x00);
        assert!(Rc::ptr_eq(store.buffer(1), store.buffer(2)));
        assert!(Rc::ptr_eq(store.buffer(1), store.buffer(3)));
        assert_eq!(store.buffer_bytes(), 2 * 64, "one buffer per fill byte");
        write(&mut store, 2, 0, 5, 0x00);
        assert!(Rc::ptr_eq(store.buffer(1), store.buffer(3)));
        assert!(!Rc::ptr_eq(store.buffer(1), store.buffer(2)));
        assert_eq!(store.bytes(1).unwrap(), &[0xFF; 64][..]);
        assert_eq!(store.bytes(2).unwrap()[..6], [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00]);
        assert_eq!(store.buffer_bytes(), 3 * 64);
        // A whole-row fill keeps an unshared buffer, filled in place, and
        // swaps a shared one for the fill byte's buffer.
        let own = Rc::as_ptr(store.buffer(2));
        store.fill(2, 0, 0..64, 0xAA);
        assert_eq!(Rc::as_ptr(store.buffer(2)), own);
        assert_eq!(store.bytes(2).unwrap(), &[0xAA; 64][..]);
        store.fill(1, 0, 0..64, 0x00);
        assert!(Rc::ptr_eq(store.buffer(1), store.buffer(4)));
        assert_eq!(store.bytes(3).unwrap(), &[0xFF; 64][..]);
    }

    #[test]
    fn rollback_restores_the_pre_images_and_a_repeat_trial_allocates_nothing() {
        let mut store = store();
        write(&mut store, 2, 0, 5, 0xAB);
        store.fill(3, 0, 0..64, 0xFF);
        let before = [2, 3].map(|row| Rc::clone(store.buffer(row)));
        let trial = |store: &mut SparseStore| {
            store.journal_begin();
            store.touch(2, 5);
            assert!(Rc::ptr_eq(store.buffer(2), &before[0]), "saving a pre-image copies nothing");
            write(store, 2, 10, 5, 0x11);
            write(store, 3, 10, 0, 0x22);
            write(store, 6, 10, 1, 0xEF);
            store.fill(7, 10, 0..64, 0x5A);
            // Three copies, the two pre-images (row 3's is the all-ones
            // buffer), the zero buffer and the new 0x5A buffer.
            assert_eq!(store.buffer_bytes(), 7 * 64);
            store.journal_rollback();
        };
        trial(&mut store);
        let allocated = row_buffers_allocated();
        trial(&mut store);
        assert_eq!(row_buffers_allocated(), allocated, "a repeat trial reuses the spares");
        for (row, pre) in [2, 3].into_iter().zip(&before) {
            assert!(Rc::ptr_eq(store.buffer(row), pre), "row {row}");
        }
        assert_eq!(store.bytes(2).unwrap()[5], 0xAB);
        assert_eq!((store.bytes(6), store.bytes(7)), (None, None));
        assert_eq!(store.buffer_bytes(), 3 * 64, "the 0x5A buffer went with its journal");
    }

    #[test]
    fn writes_to_a_fork_never_reach_the_parent() {
        let mut parent = store();
        write(&mut parent, 1, 0, 3, 0x5A);
        parent.fill(2, 0, 0..64, 0xFF);
        let mut fork = parent.clone();
        for row in [1, 2] {
            assert!(Rc::ptr_eq(parent.buffer(row), fork.buffer(row)), "a fork copies no row");
        }
        write(&mut fork, 1, 0, 3, 0x00);
        fork.fill(2, 0, 0..64, 0x00);
        write(&mut fork, 5, 0, 0, 0x01);
        assert_eq!(parent.bytes(1).unwrap()[3], 0x5A);
        assert_eq!(parent.bytes(2).unwrap(), &[0xFF; 64][..]);
        assert_eq!(parent.bytes(5), None);
        // Nor do the parent's writes reach the fork.
        write(&mut parent, 2, 0, 0, 0x00);
        assert_eq!(fork.bytes(2).unwrap(), &[0x00; 64][..]);
        assert_eq!(fork.bytes(1).unwrap()[3], 0x00);
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
        write(&mut store, 2, 100, 5, 0xAB);
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
        write(&mut store, 2, 100, 5, 0xAB);
        write(&mut store, 4, 200, 0, 0xCD);
        store.journal_begin();
        write(&mut store, 2, 300, 5, 0x11);
        *store.materialize(2, 300).last_charge_ns = 300;
        store.touch(4, 400);
        write(&mut store, 6, 500, 1, 0xEF);
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
        write(&mut store, 2, 700, 5, 0x22);
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
        write(&mut store, 1, 10, 0, 1);
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
