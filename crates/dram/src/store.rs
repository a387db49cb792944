//! Row storage for [`crate::DramModule`]: which rows exist, their cell
//! contents, and the per-row charge timestamps the retention model decays
//! from, indexed by *backing* row id (remap resolution happens above this
//! layer, in `DramModule`).
//!
//! A row's contents take one of two forms. A *dense* row is a buffer of
//! `row_bytes` bytes. A *compact* row is a fill byte plus the ascending
//! positions of the bits that differ from it, four bytes each. A
//! whole-row fill makes a compact row with no differing bits, and a full
//! decay ([`RowMut::fill_except`]) one whose list takes at most an eighth
//! of the row: after the cell-type profiler's wait, a true-cell row is all
//! zeros but for a few dozen long-retention cells, and an anti-cell row
//! all ones. One fixed rule, no knob. Both keep a dense row whose buffer
//! nothing else shares in place instead, so a trial never frees a buffer
//! its rollback could recycle. Every read — reads, peeks, the contents
//! hash, digest compilation, the disturb and decay scans, the profiler's
//! ones count — takes either form in place through [`RowView`]; the one
//! mutable view, [`RowMut::bytes_mut`], expands a compact row into a
//! buffer of its own on its first change.
//!
//! Both forms are copy-on-write: a row holds an `Rc<[u8]>` (its bytes, or
//! its bit list), and a journal pre-image and a fork share it; the first
//! change copies or expands it. So a fork is O(rows) reference bumps, not
//! row copies, and saving a pre-image copies no bytes. Buffers a rollback
//! frees go to a per-thread spare list that copies and expansions take
//! from before they allocate, so a steady-state journaled trial allocates
//! no row buffer.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use crate::bitplane::{count_ones, load_word};
use crate::fnv::{ContentsHasher, DigestCompiler, RowDigest};

/// The row buffers rollbacks on this thread released, for [`buffer_of`] to
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
    /// The empty bit list every compact row with no differing bit shares.
    static NO_BITS: Rc<[u8]> = Rc::from([]);
}

/// Row buffers the calling thread has allocated: copies made on a row's
/// first change, and expansions of compact rows, with no spare buffer to
/// reuse. Per thread, so a trial's count is exact whatever other threads
/// run.
pub fn row_buffers_allocated() -> u64 {
    SPARES.with_borrow(|spares| spares.allocated)
}

/// A row buffer nothing else shares, holding `row`'s contents: a spare
/// buffer from the thread's list written over, or a new one, counted.
fn buffer_of(row: RowView<'_>) -> Rc<[u8]> {
    let len = row.len();
    let spare = SPARES.with_borrow_mut(|spares| {
        let i = spares.buffers.iter().rposition(|b| b.len() == len);
        if i.is_none() {
            spares.allocated += 1;
        }
        i.map(|i| spares.buffers.swap_remove(i))
    });
    let mut buf = match (spare, row) {
        (Some(spare), _) => spare,
        (None, RowView::Dense(bytes)) => return Rc::from(bytes),
        (None, RowView::Compact { fill, .. }) => Rc::from(vec![fill; len]),
    };
    row.copy_to(0, Rc::get_mut(&mut buf).expect("spares and new buffers are unshared"));
    buf
}

/// Whether a row of `row_bytes` bytes with `bits` bits differing from its
/// fill is kept compact: when its bit list takes at most an eighth of the
/// row (one bit in 256).
fn fits_compact(bits: u64, row_bytes: usize) -> bool {
    32 * bits <= row_bytes as u64
}

/// Read-only view of one row's contents, in either form.
#[derive(Clone, Copy)]
pub(crate) enum RowView<'a> {
    /// The row's bytes.
    Dense(&'a [u8]),
    /// `len` bytes of `fill`, but for the bits at `bits`: ascending bit
    /// positions, each four little-endian bytes.
    Compact { fill: u8, bits: &'a [[u8; 4]], len: usize },
}

impl<'a> RowView<'a> {
    /// The view of a row stored as `data` (its bytes, or the bit list of a
    /// compact row of `fill`) and `len` bytes long.
    fn of(data: &'a [u8], fill: Option<u8>, len: usize) -> Self {
        match fill {
            None => RowView::Dense(data),
            Some(fill) => RowView::Compact { fill, bits: data.as_chunks::<4>().0, len },
        }
    }

    /// Row length in bytes.
    pub(crate) fn len(&self) -> usize {
        match *self {
            RowView::Dense(bytes) => bytes.len(),
            RowView::Compact { len, .. } => len,
        }
    }

    /// A compact row's listed bits in `[lo, hi)`, ascending.
    fn bits_in<'b>(bits: &'b [[u8; 4]], lo: u64, hi: u64) -> impl Iterator<Item = u64> + 'b {
        let pos = |b: &[u8; 4]| u64::from(u32::from_le_bytes(*b));
        let start = bits.partition_point(|b| pos(b) < lo);
        bits[start..].iter().map(pos).take_while(move |&bit| bit < hi)
    }

    /// Flips the listed bits of bytes `[col, col + dst.len())` in `dst`,
    /// which holds the fill there.
    fn flip_listed(bits: &[[u8; 4]], col: usize, dst: &mut [u8]) {
        let lo = 8 * col as u64;
        for bit in Self::bits_in(bits, lo, lo + 8 * dst.len() as u64) {
            let b = bit - lo;
            dst[(b / 8) as usize] ^= 1 << (b % 8);
        }
    }

    /// Copies bytes `[col, col + dst.len())` of the row into `dst`.
    #[inline]
    pub(crate) fn copy_to(&self, col: usize, dst: &mut [u8]) {
        match *self {
            RowView::Dense(bytes) => dst.copy_from_slice(&bytes[col..col + dst.len()]),
            RowView::Compact { fill, bits, .. } => {
                dst.fill(fill);
                Self::flip_listed(bits, col, dst);
            }
        }
    }

    /// Word `w` of the row (bits `[64w, 64w + 64)`), zero-padded past its
    /// end, as [`load_word`] loads it from the bytes.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        match *self {
            RowView::Dense(bytes) => load_word(bytes, w),
            RowView::Compact { fill, bits, len } => {
                let in_row = len.saturating_sub(8 * w).min(8);
                let mut word = u64::from_le_bytes([fill; 8]);
                if in_row < 8 {
                    word &= (1 << (8 * in_row)) - 1;
                }
                let lo = 64 * w as u64;
                Self::bits_in(bits, lo, lo + 64).fold(word, |word, bit| word ^ 1 << (bit - lo))
            }
        }
    }

    /// Bit `bit` of the row.
    pub(crate) fn bit(&self, bit: u64) -> bool {
        self.word((bit / 64) as usize) >> (bit % 64) & 1 == 1
    }

    /// Number of set bits in the row.
    pub(crate) fn count_ones(&self) -> u64 {
        match *self {
            RowView::Dense(bytes) => count_ones(bytes),
            RowView::Compact { fill, bits, len } => {
                // Each listed bit is a one where the fill has a zero.
                let set = bits.iter().filter(|b| fill >> (b[0] % 8) & 1 == 1).count() as u64;
                u64::from(fill.count_ones()) * len as u64 + bits.len() as u64 - 2 * set
            }
        }
    }

    /// Calls `f` with the row's bytes in order, in chunks that each start
    /// at a multiple of 64 bytes: a dense row in one, a compact row 4 KiB
    /// at a time — a row of zeros or ones throughout as a static buffer
    /// of its fill, any other written out into a buffer on the stack.
    pub(crate) fn for_each_chunk(&self, mut f: impl FnMut(&[u8])) {
        static ZEROS: [u8; 4096] = [0x00; 4096];
        static ONES: [u8; 4096] = [0xFF; 4096];
        let (fill, bits, len) = match *self {
            RowView::Dense(bytes) => return f(bytes),
            RowView::Compact { fill, bits, len } => (fill, bits, len),
        };
        let uniform = match (fill, bits) {
            (0x00, []) => Some(&ZEROS),
            (0xFF, []) => Some(&ONES),
            _ => None,
        };
        let mut scratch = [fill; 4096];
        for start in (0..len).step_by(scratch.len()) {
            let chunk = &mut scratch[..(len - start).min(4096)];
            match uniform {
                Some(uniform) => f(&uniform[..chunk.len()]),
                None => {
                    if start > 0 {
                        chunk.fill(fill);
                    }
                    Self::flip_listed(bits, start, chunk);
                    f(chunk);
                }
            }
        }
    }
}

/// Mutable view of one materialized row: its contents plus the charge
/// timestamp the retention model decays from.
pub(crate) struct RowMut<'a> {
    data: &'a mut Rc<[u8]>,
    fill: &'a mut Option<u8>,
    len: usize,
    /// Simulated time the row's charge was last restored.
    pub(crate) last_charge_ns: &'a mut u64,
    /// See [`SparseStore::dense_reference`].
    #[cfg(test)]
    dense_reference: bool,
}

impl<'a> RowMut<'a> {
    /// A mutable view of a row stored as `data` and `fill` (see
    /// [`RowView::of`]), for tests that hold a row outside a store.
    #[cfg(test)]
    pub(crate) fn new(
        data: &'a mut Rc<[u8]>,
        fill: &'a mut Option<u8>,
        len: usize,
        last_charge_ns: &'a mut u64,
    ) -> Self {
        RowMut { data, fill, len, last_charge_ns, dense_reference: false }
    }

    /// The row's contents, read in place.
    pub(crate) fn view(&self) -> RowView<'_> {
        RowView::of(self.data, *self.fill, self.len)
    }

    /// The row's bytes, to change: a compact row first expands into a
    /// buffer of its own, and a dense row shared with anything else is
    /// copied first, either into a spare buffer if the thread has one.
    /// Take it only to change a byte; reads go through [`Self::view`].
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        if self.fill.is_some() || Rc::strong_count(self.data) > 1 {
            *self.data = buffer_of(self.view());
            *self.fill = None;
        }
        Rc::get_mut(self.data).expect("a row buffer nothing else shares")
    }

    /// Sets every bit of the row to its bit in `fill`, but for the bits at
    /// `bits` (ascending), which get the opposite: a compact row if they
    /// fit the rule ([`fits_compact`]), unless the row is dense and its
    /// buffer unshared — that one is written in place and kept, as a
    /// whole-row fill keeps it, so a trial frees no buffer its rollback
    /// could recycle.
    pub(crate) fn fill_except(&mut self, fill: u8, bits: &[u64]) {
        let own = self.fill.is_none() && Rc::strong_count(self.data) == 1;
        let compact = !own && fits_compact(bits.len() as u64, self.len);
        #[cfg(test)]
        let compact = compact && !self.dense_reference;
        if compact {
            *self.data = match bits {
                [] => NO_BITS.with(Rc::clone),
                _ => bits.iter().flat_map(|&bit| (bit as u32).to_le_bytes()).collect(),
            };
            *self.fill = Some(fill);
            return;
        }
        let bytes = self.bytes_mut();
        bytes.fill(fill);
        for &bit in bits {
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
}

/// One materialized row: contents plus charge timestamp.
#[derive(Clone)]
struct RowBuf {
    /// A dense row's bytes, or a compact row's bit list (see
    /// [`RowView::Compact`]).
    data: Rc<[u8]>,
    last_charge_ns: u64,
    /// A compact row's fill byte; `None` for a dense row.
    fill: Option<u8>,
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

impl RowBuf {
    fn view(&self, len: usize) -> RowView<'_> {
        RowView::of(&self.data, self.fill, len)
    }

    /// A dense buffer nothing else holds: what a rollback can recycle.
    fn into_spare(self) -> Option<Rc<[u8]>> {
        (self.fill.is_none() && Rc::strong_count(&self.data) == 1).then_some(self.data)
    }
}

/// Rows materialize on first write, so memory scales with the number of
/// *touched* rows and paper-scale modules (gigabytes of address space,
/// kilobytes of live data) stay cheap; rows that are one byte throughout
/// but for a few bits are held as those bits (see the module doc).
///
/// A never-written row reads as all zeros ([`Self::view`]), carries no
/// charge timestamp (so refresh and decay skip it), and does not count as
/// materialized. [`Self::materialized_rows`] yields exactly the rows with a
/// charge timestamp, in ascending order: decay application order is part
/// of the determinism contract.
///
/// Every change to a row — its bytes, its charge timestamp or its
/// existence — goes through one private funnel, so the store journals
/// itself: while a journal is open, a row's slot is saved before its
/// first change (sharing the row's buffer), and
/// [`Self::journal_rollback`] moves the saved slots back. Outside a
/// journal the same funnel clears [`Self::checkpoints`] and drops the
/// changed row's digest. [`Self::compact`] changes a row's form, not its
/// contents, so it bypasses the funnel.
#[derive(Clone)]
pub(crate) struct SparseStore {
    rows: Vec<Option<RowBuf>>,
    row_bytes: u32,
    /// Number of materialized rows.
    materialized: usize,
    /// Whether a journal is open.
    journaling: bool,
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
    /// hashes from its contents until rollback restores the contents the
    /// digest describes, and a change outside a journal drops it. A row
    /// the journal created is saved too, so an unmaterialized row has none.
    digests: RefCell<Vec<Option<Box<RowDigest>>>>,
    /// Keeps every row that is not one byte throughout dense:
    /// [`RowMut::fill_except`] writes bytes. The oracle compact rows are
    /// differentially checked against.
    #[cfg(test)]
    pub(crate) dense_reference: bool,
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
            materialized: 0,
            journaling: false,
            journal: Vec::new(),
            checkpoints: RefCell::default(),
            digests: RefCell::default(),
            #[cfg(test)]
            dense_reference: false,
        })
    }

    /// Read-only view of a row's contents: a never-materialized row reads
    /// as all zeros.
    #[inline]
    pub(crate) fn view(&self, row: u64) -> RowView<'_> {
        let len = self.row_bytes as usize;
        match &self.rows[row as usize] {
            Some(buf) => buf.view(len),
            None => RowView::Compact { fill: 0, bits: &[], len },
        }
    }

    /// Mutable view of a row, materializing it at all-zeros with charge
    /// timestamp `now_ns` on first use. The only mutable view, so it also
    /// unsettles the row: whoever takes the view may change it.
    pub(crate) fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        if self.rows[row as usize].is_none() {
            self.create(row, now_ns);
        }
        let len = self.row_bytes as usize;
        #[cfg(test)]
        let dense_reference = self.dense_reference;
        let buf = self.buf_mut(row).expect("materialized above");
        buf.settled = false;
        RowMut {
            data: &mut buf.data,
            fill: &mut buf.fill,
            len,
            last_charge_ns: &mut buf.last_charge_ns,
            #[cfg(test)]
            dense_reference,
        }
    }

    /// Fills columns `cols` of a row with `byte`, through
    /// [`Self::materialize`]. A fill that covers the whole row makes it a
    /// compact row of `byte` (see [`RowMut::fill_except`]).
    pub(crate) fn fill(&mut self, row: u64, now_ns: u64, cols: Range<usize>, byte: u8) {
        let whole = cols.len() == self.row_bytes as usize;
        let mut row = self.materialize(row, now_ns);
        if whole {
            row.fill_except(byte, &[]);
        } else {
            row.bytes_mut()[cols].fill(byte);
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
        self.materialized
    }

    /// Bytes of row contents the store holds — the buffers of its dense
    /// rows and the bit lists of its compact ones, its own and the open
    /// journal's pre-images — counting each distinct buffer or list once.
    pub(crate) fn buffer_bytes(&self) -> usize {
        let saved = self.journal.iter().filter_map(|(_, pre)| pre.as_ref());
        let mut buffers: Vec<(*const u8, usize)> = (self.rows.iter().flatten().chain(saved))
            .map(|r| (r.data.as_ptr(), r.data.len()))
            .collect();
        buffers.sort_unstable();
        buffers.dedup();
        buffers.iter().map(|&(_, len)| len).sum()
    }

    /// Feeds a row to `hasher`: a never-materialized row as zeros, and a
    /// materialized one from its contents — unless a journal is open and
    /// has not saved the row. That clean row's second such hash compiles
    /// its digest, and from then on the digest stands in for its contents,
    /// so a module hashed once (a single-use parent) compiles none.
    pub(crate) fn hash_row(&self, row: u64, hasher: &mut ContentsHasher) {
        let Some(buf) = &self.rows[row as usize] else {
            return hasher.zeros(self.row_bytes);
        };
        let view = buf.view(self.row_bytes as usize);
        if !self.journaling || buf.saved {
            return view.for_each_chunk(|chunk| hasher.update(chunk));
        }
        let mut digests = self.digests.borrow_mut();
        match buf.clean_hashes.get() {
            0 => buf.clean_hashes.set(1),
            1 => {
                buf.clean_hashes.set(2);
                if digests.is_empty() {
                    digests.resize_with(self.rows.len(), || None);
                }
                let mut compiler = DigestCompiler::new(view.len());
                view.for_each_chunk(|chunk| compiler.feed(chunk));
                digests[row as usize] = compiler.finish().map(Box::new);
            }
            _ => {}
        }
        match digests.get(row as usize).and_then(Option::as_deref) {
            Some(digest) => hasher.apply(digest),
            None => view.for_each_chunk(|chunk| hasher.update(chunk)),
        }
    }

    /// The buffer or bit list a materialized row holds.
    #[cfg(test)]
    pub(crate) fn buffer(&self, row: u64) -> &Rc<[u8]> {
        &self.rows[row as usize].as_ref().expect("a materialized row").data
    }

    /// Whether a materialized row is compact.
    #[cfg(test)]
    pub(crate) fn is_compact(&self, row: u64) -> bool {
        self.rows[row as usize].as_ref().expect("a materialized row").fill.is_some()
    }

    /// Number of compact rows.
    #[cfg(test)]
    pub(crate) fn compact_count(&self) -> usize {
        self.rows.iter().flatten().filter(|r| r.fill.is_some()).count()
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
    }

    /// Closes the journal, moving every saved slot back: changed rows get
    /// their pre-images (settled bit included) and rows the journal
    /// materialized are unmaterialized again, so the store holds exactly
    /// the buffers it held at [`Self::journal_begin`]. The dense buffers
    /// only the trial held go to the thread's spare list, which keeps at
    /// most as many as one rollback on the thread has released.
    pub(crate) fn journal_rollback(&mut self) {
        assert!(self.journaling, "row store journal not open");
        self.journaling = false;
        SPARES.with_borrow_mut(|spares| {
            let before = spares.buffers.len();
            for (row, pre) in self.journal.drain(..) {
                self.materialized -= usize::from(pre.is_none());
                let trial = std::mem::replace(&mut self.rows[row as usize], pre);
                spares.buffers.extend(trial.and_then(RowBuf::into_spare));
            }
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

    /// The funnel for a never-materialized row: creates it as a compact
    /// row of zeros, with charge timestamp `now_ns`, first saving its
    /// empty slot under a journal or clearing the hash checkpoints outside
    /// one.
    fn create(&mut self, row: u64, now_ns: u64) {
        if self.journaling {
            self.journal.push((row, None));
        } else {
            self.checkpoints.get_mut().clear();
        }
        self.materialized += 1;
        self.rows[row as usize] = Some(RowBuf {
            data: NO_BITS.with(Rc::clone),
            last_charge_ns: now_ns,
            fill: Some(0),
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
        store.materialize(row, now_ns).bytes_mut()[col] = byte;
    }

    /// A materialized row's contents, `None` if never materialized.
    fn bytes(store: &SparseStore, row: u64) -> Option<Vec<u8>> {
        store.last_charge_ns(row)?;
        let mut out = vec![0; store.row_bytes as usize];
        store.view(row).copy_to(0, &mut out);
        Some(out)
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
        assert!((1..=4).all(|row| store.is_compact(row)));
        assert!(Rc::ptr_eq(store.buffer(1), store.buffer(4)), "one empty bit list");
        assert_eq!(store.buffer_bytes(), 0, "a uniform row holds no bytes");
        let allocated = row_buffers_allocated();
        write(&mut store, 2, 0, 5, 0x00);
        assert_eq!(row_buffers_allocated(), allocated + 1, "the write expands its row");
        assert!(store.is_compact(1) && !store.is_compact(2));
        assert_eq!(bytes(&store, 1).unwrap(), vec![0xFF; 64]);
        assert_eq!(bytes(&store, 2).unwrap()[..6], [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00]);
        assert_eq!(store.buffer_bytes(), 64);
        // A whole-row fill keeps an unshared buffer, filled in place, and
        // makes a shared one compact.
        let own = Rc::as_ptr(store.buffer(2));
        store.fill(2, 0, 0..64, 0xAA);
        assert_eq!(Rc::as_ptr(store.buffer(2)), own);
        assert_eq!(bytes(&store, 2).unwrap(), vec![0xAA; 64]);
        let fork = store.clone();
        store.fill(2, 0, 0..64, 0x00);
        assert!(store.is_compact(2));
        assert_eq!(bytes(&fork, 2).unwrap(), vec![0xAA; 64]);
        assert_eq!(bytes(&store, 3).unwrap(), vec![0xFF; 64]);
    }

    #[test]
    fn a_row_of_a_few_differing_bits_is_compact_and_reads_in_place() {
        // 100-byte rows end in a partial word; the rule lets three bits
        // differ from the fill.
        let mut store = SparseStore::try_new(4, 100).unwrap();
        let patterns: [(u8, &[u64]); 4] =
            [(0x00, &[0, 63, 64, 799]), (0x00, &[9, 64, 797]), (0xFF, &[1, 500, 799]), (0xFF, &[])];
        let mut dense = Vec::new();
        for (row, &(fill, bits)) in patterns.iter().enumerate() {
            store.materialize(row as u64, 0).fill_except(fill, bits);
            let mut want = vec![fill; 100];
            for &bit in bits {
                want[bit as usize / 8] ^= 1 << (bit % 8);
            }
            dense.push(want);
        }
        assert!(!store.is_compact(0), "four bits are past the rule");
        assert!((1..4).all(|row| store.is_compact(row)));
        assert_eq!(store.buffer_bytes(), 100 + 3 * 4 + 3 * 4);
        for (row, dense) in dense.iter().enumerate() {
            let view = store.view(row as u64);
            assert_eq!(view.count_ones(), count_ones(dense), "row {row}");
            for w in 0..13 {
                assert_eq!(view.word(w), load_word(dense, w), "row {row} word {w}");
            }
            for col in [0, 1, 7, 8, 60, 93, 99] {
                for len in [0, 1, 7, 8] {
                    let len = len.min(100 - col);
                    let mut got = vec![0x5A; len];
                    view.copy_to(col, &mut got);
                    assert_eq!(got, dense[col..col + len], "row {row} col {col}");
                }
            }
            let mut chunks = Vec::new();
            view.for_each_chunk(|chunk| chunks.push(chunk.to_vec()));
            assert_eq!(chunks.concat(), *dense, "row {row}");
        }
        // The first change expands the row, and a whole-row fill makes it
        // compact again without a bit list.
        write(&mut store, 1, 0, 99, 0x80);
        assert!(!store.is_compact(1));
        assert_eq!(bytes(&store, 1).unwrap()[..99], dense[1][..99]);
        store.fill(2, 0, 0..100, 0x00);
        assert!(store.is_compact(2));
        assert_eq!(store.buffer_bytes(), 2 * 100);
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
            // Row 2's pre-image and its copy, and rows 3 and 6 expanded.
            assert_eq!(store.buffer_bytes(), 4 * 64);
            store.journal_rollback();
        };
        trial(&mut store);
        let allocated = row_buffers_allocated();
        trial(&mut store);
        assert_eq!(row_buffers_allocated(), allocated, "a repeat trial reuses the spares");
        for (row, pre) in [2, 3].into_iter().zip(&before) {
            assert!(Rc::ptr_eq(store.buffer(row), pre), "row {row}");
        }
        assert_eq!(bytes(&store, 2).unwrap()[5], 0xAB);
        assert!(store.is_compact(3));
        assert_eq!((bytes(&store, 6), bytes(&store, 7)), (None, None));
        assert_eq!(store.materialized_count(), 2);
        assert_eq!(store.buffer_bytes(), 64);
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
        assert_eq!(bytes(&parent, 1).unwrap()[3], 0x5A);
        assert_eq!(bytes(&parent, 2).unwrap(), vec![0xFF; 64]);
        assert_eq!(bytes(&parent, 5), None);
        assert_eq!((parent.materialized_count(), fork.materialized_count()), (2, 3));
        // Nor do the parent's writes reach the fork.
        write(&mut parent, 2, 0, 0, 0x00);
        assert_eq!(bytes(&fork, 2).unwrap(), vec![0x00; 64]);
        assert_eq!(bytes(&fork, 1).unwrap()[3], 0x00);
    }

    #[test]
    fn fresh_rows_read_as_unmaterialized() {
        let store = store();
        assert_eq!(bytes(&store, 3), None);
        assert_eq!(store.view(3).count_ones(), 0);
        assert_eq!(store.last_charge_ns(3), None);
        assert_eq!(store.materialized_count(), 0);
        assert!(store.materialized_rows().is_empty());
    }

    #[test]
    fn materialize_then_read_back() {
        let mut store = store();
        write(&mut store, 2, 100, 5, 0xAB);
        assert_eq!(bytes(&store, 2).unwrap()[5], 0xAB);
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
        assert_eq!(bytes(&store, 2).unwrap()[5], 0xAB);
        assert_eq!(store.last_charge_ns(2), Some(100));
        assert_eq!(store.last_charge_ns(4), Some(200));
        assert_eq!(bytes(&store, 6), None);
        assert_eq!(store.last_charge_ns(6), None);
        assert_eq!(store.materialized_rows(), vec![2, 4]);
        // A second journal saves the restored rows afresh.
        store.journal_begin();
        write(&mut store, 2, 700, 5, 0x22);
        store.journal_rollback();
        assert_eq!(bytes(&store, 2).unwrap()[5], 0xAB);
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
        assert_eq!(bytes(&store, 2).unwrap(), vec![0xA5; 64]);
        assert_eq!(store.last_charge_ns(2), Some(100));
        assert!(!store.settled(2));
        // A partial fill of a fresh row leaves the rest of it at zeros, and
        // a fill of a live row leaves its other columns alone.
        store.fill(3, 100, 8..16, 0x5A);
        let mut want = [0u8; 64];
        want[8..16].fill(0x5A);
        assert_eq!(bytes(&store, 3).unwrap(), want);
        store.fill(2, 200, 0..8, 0x00);
        assert_eq!(bytes(&store, 2).unwrap()[..10], [0, 0, 0, 0, 0, 0, 0, 0, 0xA5, 0xA5]);
        assert_eq!(store.last_charge_ns(2), Some(100), "a fill keeps the charge");
        store.journal_rollback();
        assert_eq!(store.materialized_count(), 0, "rollback forgets the created rows");
    }
}
