use std::cell::Cell;

use crate::bitplane::{load_word, store_word};
use crate::cells::{CellLayout, CellType, CellTypeMap};
use crate::config::DramConfig;
use crate::defense::{ActivationCtx, DefenseSnapshot, DefenseStats, RowDefense, Verdict};
use crate::error::DramError;
use crate::fnv::ContentsHasher;
use crate::geometry::{DramGeometry, RowId, MAX_ROWS, MAX_ROW_BYTES};
use crate::journal::DramJournal;
use crate::remap::RemapTable;
use crate::retention::RetentionModel;
use crate::stats::{DramStats, FlipEvent, FlipLog};
use crate::store::SparseStore;
use crate::vuln::{VulnerabilityModel, VulnerableBit};

/// Column-access latency charged per read/write operation, nanoseconds.
const COL_ACCESS_NS: u64 = 10;

/// Sentinel row index: no row (valid row indices are `< total_rows`, and a
/// module with `u64::MAX` rows cannot exist — its capacity would overflow).
const ROW_NONE: u64 = u64::MAX;

/// Sentinel activation-counter entry: never matches a real window key
/// (generations count up from zero).
const NO_ACTIVATIONS: (u64, u64, u64) = (u64::MAX, u64::MAX, 0);

/// One row-aligned span of a physical byte range: `take` bytes at column
/// `col` of `row`, covering `[off, off + take)` of the caller's buffer.
#[derive(Debug, Clone, Copy)]
struct Span {
    row: RowId,
    col: usize,
    off: usize,
    take: usize,
}

/// Iterator over the row-aligned spans of `[addr, addr + len)` — the one
/// row-walking loop shared by `read_into`, `write`, `peek_into`, and
/// `fill`. Rows occupy contiguous address ranges under every
/// [`crate::geometry::AddressMapping`] (interleaving permutes *bank*
/// coordinates, not addresses), so this is pure arithmetic over a
/// pre-checked range and cannot fail.
struct Spans {
    row_bytes: u64,
    addr: u64,
    len: usize,
    off: usize,
}

impl Spans {
    fn new(row_bytes: u64, addr: u64, len: usize) -> Self {
        Spans { row_bytes, addr, len, off: 0 }
    }
}

impl Iterator for Spans {
    type Item = Span;

    fn next(&mut self) -> Option<Span> {
        if self.off >= self.len {
            return None;
        }
        let a = self.addr + self.off as u64;
        let col = (a % self.row_bytes) as usize;
        let take = (self.row_bytes as usize - col).min(self.len - self.off);
        let span = Span { row: RowId(a / self.row_bytes), col, off: self.off, take };
        self.off += take;
        Some(span)
    }
}

/// A simulated DRAM module.
///
/// The module owns its cell contents (sparsely materialized by row), its
/// fixed vulnerability and retention maps, its refresh machinery, and a
/// simulated clock. All timing-relevant operations advance the clock:
/// activations cost `tRC`, column accesses a fixed latency.
///
/// # RowHammer model
///
/// [`hammer`](Self::hammer) models *forced* activations (the attacker
/// defeats the row buffer with cache flushes or row conflicts).
/// When an aggressor row accumulates `hammer_threshold` activations within
/// one refresh window, its bank-adjacent neighbor rows are disturbed: every
/// vulnerable cell whose stored value matches its flip direction's source
/// value flips. True-cell rows flip almost exclusively `1→0`, anti-cell rows
/// `0→1` (see [`VulnerabilityModel`]).
///
/// # Refresh and retention
///
/// While auto-refresh runs (64 ms windows), cells never decay — retention
/// times are orders of magnitude longer than the refresh interval. Disabling
/// refresh (as the cell-type profiler does) lets cells decay toward their
/// polarity's discharged value on their individual retention schedules.
/// Ordinary accesses recharge the accessed row.
pub struct DramModule {
    config: DramConfig,
    /// Row storage, indexed by backing-row id; unmaterialized rows have
    /// never been written (all cells at logic `0`). It journals its own
    /// row changes and keeps the `contents_hash` checkpoints.
    store: SparseStore,
    /// Everything else a trial may change, in one struct so that forks,
    /// journal snapshots and rollbacks copy all of it by construction.
    state: ModuleState,
    /// Active undo journal, if a trial is running in place on this module
    /// (see [`crate::journal`]).
    journal: Option<Box<DramJournal>>,
    /// The last rolled-back journal, whose snapshot the next
    /// [`Self::journal_begin`] copies the state into, reusing its tables.
    spare_journal: Option<Box<DramJournal>>,
    /// Flips disturbed cells with the per-bit scalar reference instead of
    /// the wordwise path: the test oracle the production path is
    /// differentially checked against.
    #[cfg(test)]
    scalar_reference: bool,
}

/// The module's mutable state outside its row store: what
/// [`DramModule::fork`] copies and an undo journal snapshots and restores
/// besides the rows.
pub(crate) struct ModuleState {
    vuln: VulnerabilityModel,
    retention: RetentionModel,
    remap: RemapTable,
    /// One-entry cache of the last remap resolution `(logical, backing)`,
    /// invalidated whenever the remap table changes. `Cell` because the
    /// read-only oracles (`peek`) warm it too.
    row_cache: Cell<(u64, u64)>,
    clock_ns: u64,
    /// End of the current refresh window (`u64::MAX` while refresh is off):
    /// the first instant at which `set_clock` must account completed
    /// windows. Caching it keeps the per-access clock bump division-free —
    /// two `u64` divisions per read/write otherwise dominate the chunked
    /// data path.
    window_end_ns: u64,
    /// Some(t) when auto-refresh was disabled at time t.
    refresh_disabled_at: Option<u64>,
    /// Incremented on every refresh enable/disable toggle and power cycle so
    /// stale activation windows can be detected lazily.
    generation: u64,
    /// Activation counts per backing row: `(generation, window_id, count)`,
    /// [`NO_ACTIVATIONS`] when the row was never activated.
    activations: Vec<(u64, u64, u64)>,
    /// Open row per bank ([`ROW_NONE`] = closed) for row-buffer-hit modeling
    /// of ordinary accesses.
    open_rows: Vec<u64>,
    stats: DramStats,
    /// Installed software defense consulted on every activation batch;
    /// `None` takes the exact pre-hook code path.
    defense: Option<Box<dyn RowDefense>>,
    /// Intervention accounting for the installed defense, separate from
    /// [`DramStats`] so undefended telemetry is unchanged.
    defense_stats: DefenseStats,
}

crate::clone_fields!(ModuleState {
    vuln,
    retention,
    remap,
    row_cache,
    clock_ns,
    window_end_ns,
    refresh_disabled_at,
    generation,
    activations,
    open_rows,
    stats,
    defense,
    defense_stats,
});

impl std::fmt::Debug for DramModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramModule")
            .field("capacity", &self.config.geometry.capacity_bytes())
            .field("clock_ns", &self.state.clock_ns)
            .field("materialized_rows", &self.store.materialized_count())
            .field("refresh_enabled", &self.state.refresh_disabled_at.is_none())
            .field("defense", &self.state.defense.as_ref().map(|d| d.name()))
            .field("stats", &format_args!("{}", self.state.stats))
            .finish()
    }
}

impl DramModule {
    /// Creates a module from its configuration. All cells start at logic `0`.
    ///
    /// # Panics
    ///
    /// Panics if the per-row tables do not fit in memory; [`Self::try_new`]
    /// returns that as an error.
    pub fn new(config: DramConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a module from its configuration, allocating its per-row
    /// tables fallibly. All cells start at logic `0`.
    ///
    /// # Errors
    ///
    /// [`DramError::RowTooWide`] if a row is wider than
    /// [`MAX_ROW_BYTES`];
    /// [`DramError::TooManyRows`] if it has more than [`MAX_ROWS`] rows;
    /// [`DramError::RowTablesTooLarge`] if the row slots or activation
    /// counters (a few dozen bytes per row, allocated up front) do not fit
    /// in host memory.
    pub fn try_new(config: DramConfig) -> Result<Self, DramError> {
        let row_bytes = config.geometry.row_bytes();
        if row_bytes > MAX_ROW_BYTES {
            return Err(DramError::RowTooWide { row_bytes });
        }
        let rows = config.geometry.total_rows();
        if rows > MAX_ROWS {
            return Err(DramError::TooManyRows { rows });
        }
        let too_large = || DramError::RowTablesTooLarge { rows };
        let total_rows = usize::try_from(rows).map_err(|_| too_large())?;
        let store = SparseStore::try_new(total_rows, row_bytes as u32).ok_or_else(too_large)?;
        let mut activations = Vec::new();
        activations.try_reserve_exact(total_rows).map_err(|_| too_large())?;
        activations.resize(total_rows, NO_ACTIVATIONS);
        let vuln = VulnerabilityModel::new(
            &config.geometry,
            config.layout,
            config.disturbance,
            config.seed,
        );
        let retention =
            RetentionModel::new(config.retention, config.geometry.bits_per_row(), config.seed);
        let banks = config.geometry.banks() as usize;
        Ok(DramModule {
            store,
            state: ModuleState {
                vuln,
                retention,
                remap: RemapTable::new(),
                row_cache: Cell::new((ROW_NONE, ROW_NONE)),
                clock_ns: 0,
                window_end_ns: config.refresh_interval_ns,
                refresh_disabled_at: None,
                generation: 0,
                activations,
                open_rows: vec![ROW_NONE; banks],
                stats: DramStats::default(),
                defense: None,
                defense_stats: DefenseStats::default(),
            },
            journal: None,
            spare_journal: None,
            #[cfg(test)]
            scalar_reference: false,
            config,
        })
    }

    /// A module whose disturbance and partial decay run the per-bit scalar
    /// reference, for differential tests of the wordwise path.
    #[cfg(test)]
    pub(crate) fn scalar_reference(config: DramConfig) -> Self {
        let mut m = DramModule::new(config);
        m.scalar_reference = true;
        m.state.retention.scalar_reference = true;
        m
    }

    /// A module whose decayed rows stay dense, for differential tests of
    /// compact rows.
    #[cfg(test)]
    pub(crate) fn dense_reference(config: DramConfig) -> Self {
        let mut m = DramModule::new(config);
        m.store.dense_reference = true;
        m
    }

    /// Forks the module: an independent copy sharing no observable state
    /// with the original. Row contents are copy-on-write, so a fork costs
    /// O(rows) reference bumps, not row copies, plus a copy of the state;
    /// either side copies a row on its first change to it. Trials isolate
    /// in place with [`Self::journal_begin`] instead, and the fork stays as
    /// the oracle journal rollback is checked against.
    pub fn fork(&self) -> DramModule {
        assert!(self.journal.is_none(), "cannot fork a module with an active journal");
        DramModule {
            config: self.config.clone(),
            store: self.store.clone(),
            state: self.state.clone(),
            journal: None,
            spare_journal: None,
            #[cfg(test)]
            scalar_reference: self.scalar_reference,
        }
    }

    // ------------------------------------------------------------------
    // Undo journal
    // ------------------------------------------------------------------

    /// Starts an undo journal: snapshots the module state (model-cache
    /// accounting, remap, clock/window state, activation counters, stats
    /// including the flip log, defense) into the previous journal's
    /// snapshot, reusing its tables, and opens the row store's journal,
    /// which saves each row before its first change. Until
    /// [`Self::journal_rollback`], the module may be mutated freely in
    /// place; rollback restores it byte-identically. See the `journal`
    /// module for the cost model.
    ///
    /// # Panics
    ///
    /// Panics if a journal is already active (journals do not nest).
    pub fn journal_begin(&mut self) {
        assert!(self.journal.is_none(), "DRAM journal already active");
        self.store.journal_begin();
        let journal = match self.spare_journal.take() {
            Some(mut journal) => {
                journal.snapshot.clone_from(&self.state);
                journal.remapped = ROW_NONE;
                journal
            }
            None => Box::new(DramJournal { snapshot: self.state.clone(), remapped: ROW_NONE }),
        };
        self.journal = Some(journal);
    }

    /// Rolls the module back to its [`Self::journal_begin`] state: the row
    /// store moves every saved row back (rows that were unmaterialized are
    /// unmaterialized again), and the state swaps with its snapshot, which
    /// the next journal reuses. O(touched rows) plus the swap.
    ///
    /// # Panics
    ///
    /// Panics if no journal is active.
    pub fn journal_rollback(&mut self) {
        let mut journal = self.journal.take().expect("journal_rollback without journal_begin");
        self.store.journal_rollback();
        std::mem::swap(&mut self.state, &mut journal.snapshot);
        self.spare_journal = Some(journal);
    }

    /// Whether an undo journal is currently active.
    pub fn journal_active(&self) -> bool {
        self.journal.is_some()
    }

    /// Number of rows currently materialized.
    pub fn rows_materialized(&self) -> usize {
        self.store.materialized_count()
    }

    /// Bytes of row contents the module holds, each distinct buffer counted
    /// once: rows that share a buffer (a fork's, a journal pre-image and its
    /// unchanged row) count it once, and a compact row (uniform rows such
    /// as zeroed pages, fully decayed rows) counts its list of
    /// differing bits, four bytes each. A memory gauge only: it depends on
    /// how rows came to share buffers, so it is not part of any
    /// deterministic output.
    pub fn row_store_bytes(&self) -> usize {
        self.store.buffer_bytes()
    }

    /// Number of rows held compact (see the `store` module).
    #[cfg(test)]
    pub(crate) fn rows_compact(&self) -> usize {
        self.store.compact_count()
    }

    /// The module's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The module's geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.config.geometry
    }

    /// The module's cell layout.
    pub fn layout(&self) -> CellLayout {
        self.config.layout
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.geometry.capacity_bytes()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.state.clock_ns
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.state.stats
    }

    /// Rebounds the per-row model caches (vulnerability bitplanes and
    /// long-retention cells) to `rows` entries each, from their fixed
    /// default of 4,096. Evicted rows are regenerated on demand from the
    /// module seed, so simulated behavior is unaffected; a small bound lets
    /// a small module reach the eviction path a module of more than 4,096
    /// rows reaches at the default.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn set_model_cache_capacity(&mut self, rows: usize) {
        self.state.vuln.set_cache_capacity(rows);
        self.state.retention.set_cache_capacity(rows);
        self.sync_model_stats();
    }

    /// Rows currently retained in the largest per-row model cache — what
    /// the O(capacity) memory-bound test watches during a templating sweep.
    pub fn model_cache_rows(&self) -> usize {
        self.state.vuln.cached_rows().max(self.state.retention.cached_rows())
    }

    /// Payload bytes currently retained across both per-row model caches,
    /// counted in the row-map stores this module shares with its forks and
    /// journal snapshots, a vulnerability map weighed as its sorted bit
    /// list. The telemetry gauges `vuln_cache_bytes`/`retention_cache_bytes`
    /// report the subset of those maps the module's own accounting holds.
    pub fn model_cache_bytes(&self) -> usize {
        self.state.vuln.cache_bytes() + self.state.retention.cache_bytes()
    }

    /// Takes the retained flip log (oldest first) together with the exact
    /// number of events the bounded ring evicted, leaving the log empty and
    /// resetting its drop counter. The returned transcript is complete
    /// **iff** [`FlipLog::dropped`] is zero; consumers that require a
    /// faithful transcript (record/replay) must check
    /// [`FlipLog::is_complete`] instead of assuming it.
    pub fn take_flip_log(&mut self) -> FlipLog {
        let (events, dropped) = self.state.stats.flip_log.drain_to_vec();
        FlipLog { events, dropped }
    }

    /// Reconfigures how many flip events the bounded log retains. Zero
    /// disables event retention entirely (counters still accumulate);
    /// shrinking evicts the oldest retained events.
    pub fn set_flip_log_capacity(&mut self, capacity: usize) {
        self.state.stats.flip_log.set_capacity(capacity);
    }

    /// Whether auto-refresh is currently running.
    pub fn refresh_enabled(&self) -> bool {
        self.state.refresh_disabled_at.is_none()
    }

    /// Ground-truth cell type of a (logical) row.
    ///
    /// Remapping preserves polarity, so the logical and backing rows agree.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn cell_type_of_row(&self, row: RowId) -> Result<CellType, DramError> {
        if row.0 >= self.config.geometry.total_rows() {
            return Err(DramError::RowOutOfBounds { row, rows: self.config.geometry.total_rows() });
        }
        Ok(self.config.layout.cell_type(self.resolve_row(row)))
    }

    /// Ground-truth cell type of the row containing a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] for addresses outside the module.
    pub fn cell_type_of_addr(&self, addr: u64) -> Result<CellType, DramError> {
        let row = self.config.geometry.row_of_addr(addr)?;
        self.cell_type_of_row(row)
    }

    /// Ground-truth cell-type map (what a perfect profiler would recover).
    pub fn ground_truth_cell_map(&self) -> CellTypeMap {
        CellTypeMap::from_layout(&self.config.geometry, self.config.layout)
    }

    /// Remaps `faulty` onto `spare` (manufacturer repair).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] if either row is outside the
    /// module; see [`RemapTable::remap`] for the remaining conditions.
    pub fn remap_row(&mut self, faulty: RowId, spare: RowId) -> Result<(), DramError> {
        for row in [faulty, spare] {
            if row.0 >= self.config.geometry.total_rows() {
                return Err(DramError::RowOutOfBounds {
                    row,
                    rows: self.config.geometry.total_rows(),
                });
            }
        }
        // Re-remapping `faulty` also releases its previous spare.
        let released = self.state.remap.resolve(faulty);
        self.state.remap.remap(faulty, spare, self.config.layout)?;
        // Either side of the new swap may be the cached resolution.
        self.state.row_cache.set((ROW_NONE, ROW_NONE));
        match self.journal.as_deref_mut() {
            Some(j) => j.remapped = j.remapped.min(faulty.0).min(spare.0).min(released.0),
            None => self.store.checkpoints.get_mut().clear(),
        }
        Ok(())
    }

    /// The active remap table.
    pub fn remap_table(&self) -> &RemapTable {
        &self.state.remap
    }

    // ------------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes starting at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn read_into(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), DramError> {
        self.check_range(addr, buf.len())?;
        self.state.stats.reads += 1;
        self.set_clock(self.state.clock_ns + COL_ACCESS_NS);
        for span in Spans::new(self.config.geometry.row_bytes(), addr, buf.len()) {
            let backing = self.resolve_row(span.row);
            self.touch_row(backing);
            self.store.view(backing.0).copy_to(span.col, &mut buf[span.off..span.off + span.take]);
        }
        Ok(())
    }

    /// Reads logical `row` whole, as [`Self::read_into`] of the row would,
    /// and returns its number of set bits, counted in place: the cell-type
    /// profiler's read-back, whose pending decay leaves a true-cell row
    /// compact.
    pub(crate) fn read_row_ones(&mut self, row: RowId) -> Result<u64, DramError> {
        // A read of one byte of the row costs what a read of all of it
        // does: one operation, one span.
        self.read_into(self.config.geometry.addr_of_row(row)?, &mut [0])?;
        Ok(self.store.view(self.resolve_row(row).0).count_ones())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, DramError> {
        let mut buf = vec![0u8; len];
        self.read_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` starting at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), DramError> {
        self.check_range(addr, data.len())?;
        self.state.stats.writes += 1;
        self.set_clock(self.state.clock_ns + COL_ACCESS_NS);
        for span in Spans::new(self.config.geometry.row_bytes(), addr, data.len()) {
            let backing = self.resolve_row(span.row);
            self.touch_row(backing);
            let mut row = self.store.materialize(backing.0, self.state.clock_ns);
            row.bytes_mut()[span.col..span.col + span.take]
                .copy_from_slice(&data[span.off..span.off + span.take]);
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, DramError> {
        // Single-span fast path: all 8 bytes in one row (always, for rows
        // of at least 8 bytes and an aligned or merely non-straddling
        // address). Skips the span iterator and the staging buffer.
        let row_bytes = self.config.geometry.row_bytes();
        let col = (addr % row_bytes) as usize;
        if row_bytes - col as u64 >= 8 {
            self.check_range(addr, 8)?;
            self.state.stats.reads += 1;
            self.set_clock(self.state.clock_ns + COL_ACCESS_NS);
            let backing = self.resolve_row(RowId(addr / row_bytes));
            self.touch_row(backing);
            let mut word = [0u8; 8];
            self.store.view(backing.0).copy_to(col, &mut word);
            return Ok(u64::from_le_bytes(word));
        }
        let mut buf = [0u8; 8];
        self.read_into(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), DramError> {
        // Single-span fast path mirroring `read_u64`.
        let row_bytes = self.config.geometry.row_bytes();
        let col = (addr % row_bytes) as usize;
        if row_bytes - col as u64 >= 8 {
            self.check_range(addr, 8)?;
            self.state.stats.writes += 1;
            self.set_clock(self.state.clock_ns + COL_ACCESS_NS);
            let backing = self.resolve_row(RowId(addr / row_bytes));
            self.touch_row(backing);
            let mut row = self.store.materialize(backing.0, self.state.clock_ns);
            row.bytes_mut()[col..col + 8].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.write(addr, &value.to_le_bytes())
    }

    /// Fills `[addr, addr+len)` with `byte` (page zeroing and test patterns).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn fill(&mut self, addr: u64, len: usize, byte: u8) -> Result<(), DramError> {
        self.check_range(addr, len)?;
        // One write's worth of accounting per row span — the historical
        // delegate-to-`write` semantics — without staging a chunk buffer.
        for span in Spans::new(self.config.geometry.row_bytes(), addr, len) {
            self.state.stats.writes += 1;
            self.set_clock(self.state.clock_ns + COL_ACCESS_NS);
            let backing = self.resolve_row(span.row);
            self.touch_row(backing);
            self.store.fill(backing.0, self.state.clock_ns, span.col..span.col + span.take, byte);
        }
        Ok(())
    }

    /// Debug oracle: reads into `buf` without touching the clock, row
    /// buffer, decay, or statistics. Not available to simulated software.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::OutOfBounds`] if the range exceeds capacity.
    pub fn peek_into(&self, addr: u64, buf: &mut [u8]) -> Result<(), DramError> {
        self.check_range(addr, buf.len())?;
        for span in Spans::new(self.config.geometry.row_bytes(), addr, buf.len()) {
            let backing = self.resolve_row(span.row);
            self.store.view(backing.0).copy_to(span.col, &mut buf[span.off..span.off + span.take]);
        }
        Ok(())
    }

    /// Debug oracle: the wordwise FNV-1a 64 hash of the module's whole
    /// logical contents, equal to hashing `peek(0, capacity)` one
    /// little-endian `u64` word at a time (a trailing partial word byte at
    /// a time). This is the recording format's `contents_hash`.
    ///
    /// Computed straight over the row store, without copying: a dense row
    /// from its bytes, where an all-zero or all-ones 64-byte block costs
    /// one multiply-add, and a compact row of zeros or ones (a
    /// never-materialized row, a profiled row) from its bit list, where
    /// each run of fill words costs one multiply-add and each word holding
    /// a listed bit one round (see the `fnv` module). Under an active
    /// journal the hash resumes from the checkpoint at the journal's first
    /// dirty row, filling in missing checkpoints below it from the (clean)
    /// current rows, so a pooled trial re-hashes only the rows it could
    /// have changed and everything after them.
    pub fn contents_hash(&self) -> u64 {
        let total_rows = self.config.geometry.total_rows();
        let Some(journal) = self.journal.as_deref() else {
            let mut hasher = ContentsHasher::new();
            self.hash_rows(&mut hasher, 0..total_rows);
            return hasher.finish();
        };
        let first_dirty = journal.first_dirty_row(&self.store, &self.state.remap).min(total_rows);
        let mut checkpoints = self.store.checkpoints.borrow_mut();
        if checkpoints.is_empty() {
            checkpoints.push(ContentsHasher::new());
        }
        while checkpoints.len() as u64 <= first_dirty {
            let row = checkpoints.len() as u64 - 1;
            let mut hasher = checkpoints[row as usize];
            self.hash_rows(&mut hasher, row..row + 1);
            checkpoints.push(hasher);
        }
        let mut hasher = checkpoints[first_dirty as usize];
        drop(checkpoints);
        self.hash_rows(&mut hasher, first_dirty..total_rows);
        // Leave the resolve cache where a full sweep leaves it.
        self.resolve_row(RowId(total_rows - 1));
        hasher.finish()
    }

    /// Feeds logical `rows` to `hasher` in order.
    fn hash_rows(&self, hasher: &mut ContentsHasher, rows: std::ops::Range<u64>) {
        for row in rows {
            self.store.hash_row(self.resolve_row(RowId(row)).0, hasher);
        }
    }

    /// Debug oracle: allocating variant of [`peek_into`](Self::peek_into).
    pub fn peek(&self, addr: u64, len: usize) -> Result<Vec<u8>, DramError> {
        let mut buf = vec![0u8; len];
        self.peek_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Debug oracle: little-endian `u64` variant of [`peek`](Self::peek).
    /// Allocation-free — this sits on the page-walk inspection hot path.
    pub fn peek_u64(&self, addr: u64) -> Result<u64, DramError> {
        let row_bytes = self.config.geometry.row_bytes();
        let col = (addr % row_bytes) as usize;
        if row_bytes - col as u64 >= 8 {
            self.check_range(addr, 8)?;
            let backing = self.resolve_row(RowId(addr / row_bytes));
            let mut word = [0u8; 8];
            self.store.view(backing.0).copy_to(col, &mut word);
            return Ok(u64::from_le_bytes(word));
        }
        let mut buf = [0u8; 8];
        self.peek_into(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    // ------------------------------------------------------------------
    // Time, refresh, power
    // ------------------------------------------------------------------

    /// Advances the simulated clock by `ns`.
    pub fn advance(&mut self, ns: u64) {
        self.set_clock(self.state.clock_ns + ns);
    }

    /// Disables auto-refresh (for profiling). Idempotent.
    pub fn disable_refresh(&mut self) {
        if self.state.refresh_disabled_at.is_none() {
            self.state.refresh_disabled_at = Some(self.state.clock_ns);
            self.state.generation += 1;
            self.reset_window_end();
        }
    }

    /// Re-enables auto-refresh, locking in any decay that occurred while it
    /// was off. Idempotent.
    pub fn enable_refresh(&mut self) {
        if self.state.refresh_disabled_at.is_some() {
            self.decay_all_materialized();
            self.state.refresh_disabled_at = None;
            self.state.generation += 1;
            self.reset_window_end();
        }
    }

    /// Simulates a power-off of `duration_ns`: cells decay on their retention
    /// schedules regardless of refresh state (DRAM remanence, section 8).
    pub fn power_off(&mut self, duration_ns: u64) {
        self.power_off_at_temperature(duration_ns, 1.0);
    }

    /// Power-off with a temperature model: cooling the module multiplies
    /// every cell's effective retention by `retention_factor` (coldboot
    /// attackers chill DRAM precisely to stretch remanence; Halderman et
    /// al. report minutes at −50 °C). `1.0` is ambient; larger is colder.
    ///
    /// # Panics
    ///
    /// Panics unless `retention_factor` is finite and ≥ 1.0.
    pub fn power_off_at_temperature(&mut self, duration_ns: u64, retention_factor: f64) {
        assert!(
            retention_factor.is_finite() && retention_factor >= 1.0,
            "cooling can only extend retention"
        );
        // While power is off every row decays relative to its last charge;
        // cooling divides the *effective* elapsed time.
        let effective = (duration_ns as f64 / retention_factor) as u64;
        self.state.clock_ns += duration_ns;
        let decay_until =
            self.state.clock_ns.saturating_sub(duration_ns - effective.min(duration_ns));
        for idx in self.store.materialized_rows() {
            self.apply_decay_to(RowId(idx), decay_until);
        }
        // After power-up, refresh resumes: whatever survived is recharged.
        self.store.recharge_all(self.state.clock_ns);
        self.state.open_rows.fill(ROW_NONE);
        self.state.activations.fill(NO_ACTIVATIONS);
        self.state.generation += 1;
        self.state.refresh_disabled_at = None;
        self.reset_window_end();
    }

    // ------------------------------------------------------------------
    // Hammering
    // ------------------------------------------------------------------

    /// Performs `count` forced activations of `row` (modeling an attacker
    /// defeating the row buffer), each advancing the clock by `tRC`.
    ///
    /// Activations are accounted against refresh windows: if the count spans
    /// a window boundary (refresh enabled), the per-window activation counter
    /// resets at the boundary, exactly as a real refresh restores victim
    /// charge. Neighbor rows are disturbed each time the within-window count
    /// crosses the configured threshold.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn hammer(&mut self, row: RowId, count: u64) -> Result<(), DramError> {
        if row.0 >= self.config.geometry.total_rows() {
            return Err(DramError::RowOutOfBounds { row, rows: self.config.geometry.total_rows() });
        }
        let backing = self.resolve_row(row);
        let trc = self.config.disturbance.trc_ns.max(1);
        let mut remaining = count;
        while remaining > 0 {
            let fit_by_time =
                ((self.state.window_end_ns.saturating_sub(self.state.clock_ns)) / trc).max(1);
            let fit = remaining.min(fit_by_time);
            self.state.stats.activations += fit;
            self.set_clock(self.state.clock_ns + fit * trc);
            self.record_activation(backing, fit);
            remaining -= fit;
        }
        Ok(())
    }

    /// Hammers `row` exactly to the disturbance threshold within the current
    /// window (the canonical "one hammer burst" of the paper's attack-time
    /// model, which budgets one refresh interval per hammered row).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn hammer_to_threshold(&mut self, row: RowId) -> Result<(), DramError> {
        self.hammer(row, self.config.disturbance.hammer_threshold)
    }

    /// Double-sided hammering of `victim`: both sandwich aggressors are
    /// hammered to threshold, disturbing `victim` (and the aggressors' outer
    /// neighbors). Falls back to single-sided at bank edges.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn hammer_double_sided(&mut self, victim: RowId) -> Result<(), DramError> {
        let backing = self.resolve_row(victim);
        if backing.0 >= self.config.geometry.total_rows() {
            return Err(DramError::RowOutOfBounds {
                row: victim,
                rows: self.config.geometry.total_rows(),
            });
        }
        let neighbors = self.config.geometry.adjacent_rows(backing)?;
        for aggressor in neighbors {
            self.hammer(aggressor, self.config.disturbance.hammer_threshold)?;
        }
        Ok(())
    }

    /// Activations of `row` within the current refresh window — the signal
    /// a hardware-performance-counter defense like ANVIL watches.
    ///
    /// Rows outside the module were never activated: `0`.
    pub fn window_activations(&self, row: RowId) -> u64 {
        if row.0 >= self.config.geometry.total_rows() {
            return 0;
        }
        let backing = self.resolve_row(row);
        let (gen, win, count) = self.state.activations[backing.0 as usize];
        if (gen, win) == self.current_window_key() {
            count
        } else {
            0
        }
    }

    /// The `n` most-activated rows of the current refresh window, hottest
    /// first.
    pub fn hottest_rows(&self, n: usize) -> Vec<(RowId, u64)> {
        let key = self.current_window_key();
        let mut rows: Vec<(RowId, u64)> = self
            .state
            .activations
            .iter()
            .enumerate()
            .filter(|(_, (gen, win, _))| (*gen, *win) == key)
            .map(|(row, (_, _, count))| (RowId(row as u64), *count))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Targeted mitigation: refresh the neighbors of a suspected aggressor
    /// (what ANVIL does on detection) and restart its activation window, so
    /// accumulated hammer progress is lost.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn refresh_neighbors_of(&mut self, row: RowId) -> Result<(), DramError> {
        if row.0 >= self.config.geometry.total_rows() {
            return Err(DramError::RowOutOfBounds { row, rows: self.config.geometry.total_rows() });
        }
        let backing = self.resolve_row(row);
        for victim in self.config.geometry.adjacent_rows(backing)? {
            self.store.touch(victim.0, self.state.clock_ns);
        }
        self.state.activations[backing.0 as usize] = NO_ACTIVATIONS;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Software defenses
    // ------------------------------------------------------------------

    /// Installs a software defense on the activation path, replacing any
    /// previous one. See [`crate::defense`] for the hook contract.
    pub fn install_defense(&mut self, defense: Box<dyn RowDefense>) {
        self.state.defense = Some(defense);
        self.state.defense_stats = DefenseStats::default();
    }

    /// The installed defense, if any.
    pub fn defense(&self) -> Option<&dyn RowDefense> {
        self.state.defense.as_deref()
    }

    /// Module-side accounting of defense interventions.
    pub fn defense_stats(&self) -> &DefenseStats {
        &self.state.defense_stats
    }

    /// Telemetry snapshot of the installed defense (`None` when no defense
    /// is installed, so undefended snapshots carry no `defense` group).
    pub fn defense_snapshot(&self) -> Option<DefenseSnapshot> {
        self.state.defense.as_ref().map(|d| DefenseSnapshot {
            name: d.name(),
            stats: self.state.defense_stats.clone(),
            counters: d.counters(),
        })
    }

    /// Marks the row containing (logical) `row` as protected for the
    /// installed defense — what the kernel calls for every page-table
    /// frame it allocates. A no-op without a defense.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn defense_protect_row(&mut self, row: RowId) -> Result<(), DramError> {
        if row.0 >= self.config.geometry.total_rows() {
            return Err(DramError::RowOutOfBounds { row, rows: self.config.geometry.total_rows() });
        }
        let backing = self.resolve_row(row);
        if let Some(defense) = self.state.defense.as_mut() {
            defense.on_protect_row(backing);
        }
        Ok(())
    }

    /// The fixed vulnerable-bit map of `row` — an experimenter oracle, also
    /// what a templating attacker reconstructs by hammering memory they own.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfBounds`] for rows outside the module.
    pub fn vulnerable_bits(&mut self, row: RowId) -> Result<Vec<VulnerableBit>, DramError> {
        if row.0 >= self.config.geometry.total_rows() {
            return Err(DramError::RowOutOfBounds { row, rows: self.config.geometry.total_rows() });
        }
        let backing = self.resolve_row(row);
        let bits = self.state.vuln.vulnerable_bits(backing);
        self.sync_model_stats();
        Ok(bits)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_range(&self, addr: u64, len: usize) -> Result<(), DramError> {
        let cap = self.config.geometry.capacity_bytes();
        if addr >= cap || len as u64 > cap - addr {
            return Err(DramError::OutOfBounds { addr, len, capacity: cap });
        }
        Ok(())
    }

    fn current_window_key(&self) -> (u64, u64) {
        match self.state.refresh_disabled_at {
            None => (self.state.generation, self.state.clock_ns / self.config.refresh_interval_ns),
            Some(t0) => (self.state.generation, t0 / self.config.refresh_interval_ns),
        }
    }

    /// Resolves a logical row to its backing row through the remap table,
    /// with a one-entry cache in front: page walks and sequential accesses
    /// hit the same row repeatedly, so the common case skips the table.
    #[inline]
    fn resolve_row(&self, row: RowId) -> RowId {
        let (cached_row, cached_backing) = self.state.row_cache.get();
        if cached_row == row.0 {
            return RowId(cached_backing);
        }
        let backing = self.state.remap.resolve(row);
        self.state.row_cache.set((row.0, backing.0));
        backing
    }

    fn set_clock(&mut self, new: u64) {
        debug_assert!(new >= self.state.clock_ns);
        if new < self.state.window_end_ns {
            // Common case: still inside the current refresh window (or
            // refresh is off, `window_end_ns == u64::MAX`) — no completed
            // windows to account, no divisions.
            self.state.clock_ns = new;
            return;
        }
        let interval = self.config.refresh_interval_ns;
        self.state.stats.refresh_windows += new / interval - self.state.clock_ns / interval;
        self.state.clock_ns = new;
        self.state.window_end_ns = (new / interval + 1) * interval;
    }

    /// Recomputes [`Self::window_end_ns`] after a refresh-state change.
    fn reset_window_end(&mut self) {
        self.state.window_end_ns = match self.state.refresh_disabled_at {
            None => {
                let interval = self.config.refresh_interval_ns;
                (self.state.clock_ns / interval + 1) * interval
            }
            Some(_) => u64::MAX,
        };
    }

    /// Ordinary-access bookkeeping for `row` (already remap-resolved):
    /// pending decay, row-buffer hit/miss, recharge.
    fn touch_row(&mut self, backing: RowId) {
        if self.state.refresh_disabled_at.is_some() {
            self.apply_decay_to(backing, self.state.clock_ns);
        }
        let bank =
            self.config.geometry.bank_coord(backing).expect("backing row in bounds").bank as usize;
        let miss = self.state.open_rows[bank] != backing.0;
        if miss {
            self.state.open_rows[bank] = backing.0;
            self.state.stats.activations += 1;
            self.set_clock(self.state.clock_ns + self.config.disturbance.trc_ns);
            // Ordinary activations count toward the disturbance threshold
            // too: this is what lets Algorithm 1 hammer page-table rows
            // through the MMU's own walk reads.
            self.record_activation(backing, 1);
        }
        self.store.touch(backing.0, self.state.clock_ns);
    }

    /// Adds `count` activations to `backing`'s within-window counter and
    /// disturbs neighbors on a threshold crossing, consulting the installed
    /// defense first. Without a defense this is exactly the pre-hook path.
    fn record_activation(&mut self, backing: RowId, count: u64) {
        if self.state.defense.is_some() {
            self.record_activation_defended(backing, count);
            return;
        }
        self.apply_activations(backing, count);
    }

    /// The undefended (hardware) activation accounting: count the batch,
    /// disturb neighbors on a threshold crossing.
    #[inline]
    fn apply_activations(&mut self, backing: RowId, count: u64) {
        let threshold = self.config.disturbance.hammer_threshold;
        let key = self.current_window_key();
        let (gen, win, have) = self.state.activations[backing.0 as usize];
        let before = if (gen, win) == key { have } else { 0 };
        let after = before + count;
        self.state.activations[backing.0 as usize] = (key.0, key.1, after);
        if before < threshold && after >= threshold {
            let _ = self.disturb_neighbors(backing);
        }
    }

    /// Activation accounting with a defense installed: the batch is offered
    /// to the hook, which may allow it, throttle it, or split it around
    /// targeted refreshes. Re-consulting on the remainder lets a defense
    /// break up even a single burst larger than its own threshold.
    fn record_activation_defended(&mut self, backing: RowId, count: u64) {
        self.state.defense_stats.activations_seen += count;
        let neighbors = self.config.geometry.adjacent_rows(backing).unwrap_or_default();
        let mut remaining = count;
        // Guards against a defense that neither permits progress nor resets
        // the aggressor's counter (which would loop forever).
        let mut stalled_rounds = 0u32;
        while remaining > 0 {
            let key = self.current_window_key();
            let (gen, win, have) = self.state.activations[backing.0 as usize];
            let before = if (gen, win) == key { have } else { 0 };
            let ctx = ActivationCtx {
                row: backing,
                count: remaining,
                window_activations: before,
                now_ns: self.state.clock_ns,
                hammer_threshold: self.config.disturbance.hammer_threshold,
                neighbors: &neighbors,
            };
            // Take the box out for the call so the defense's `&mut self`
            // cannot alias the module state it reads through `ctx`.
            let mut defense = self.state.defense.take().expect("defended path has a defense");
            let verdict = defense.on_activation(&ctx);
            self.state.defense = Some(defense);
            self.state.defense_stats.consultations += 1;
            match verdict {
                Verdict::Allow => {
                    self.apply_activations(backing, remaining);
                    remaining = 0;
                }
                Verdict::Throttle { permitted } => {
                    let take = permitted.min(remaining);
                    if take > 0 {
                        self.apply_activations(backing, take);
                    }
                    self.state.defense_stats.activations_denied += remaining - take;
                    remaining = 0;
                }
                Verdict::Refresh { permitted, targets } => {
                    let take = permitted.min(remaining);
                    if take > 0 {
                        self.apply_activations(backing, take);
                    }
                    remaining -= take;
                    for target in targets {
                        self.targeted_refresh_backing(target);
                    }
                    stalled_rounds = if take == 0 { stalled_rounds + 1 } else { 0 };
                    if stalled_rounds >= 2 {
                        // Defense bug: no forward progress two rounds in a
                        // row. Fail open rather than hang the simulation.
                        self.apply_activations(backing, remaining);
                        remaining = 0;
                    }
                }
            }
        }
    }

    /// Applies one defense-issued targeted refresh: victims of `backing`
    /// recharge at the current clock and its window counter resets —
    /// exactly what a manual [`Self::refresh_neighbors_of`] call does (no
    /// simulated time is charged on either path). Rows outside the module
    /// (a defense bug) are ignored.
    fn targeted_refresh_backing(&mut self, backing: RowId) {
        if backing.0 >= self.config.geometry.total_rows() {
            return;
        }
        if let Ok(victims) = self.config.geometry.adjacent_rows(backing) {
            for victim in victims {
                self.store.touch(victim.0, self.state.clock_ns);
            }
        }
        self.state.activations[backing.0 as usize] = NO_ACTIVATIONS;
        self.state.defense_stats.targeted_refreshes += 1;
    }

    /// Applies retention decay to a materialized row up to time `now`.
    fn apply_decay_to(&mut self, backing: RowId, now: u64) {
        let Some(last_charge) = self.store.last_charge_ns(backing.0) else { return };
        let since = match self.state.refresh_disabled_at {
            Some(t0) => last_charge.max(t0),
            // Power-off path calls with refresh nominally enabled; decay
            // accrues from the last charge directly.
            None => last_charge,
        };
        let elapsed = now.saturating_sub(since);
        if elapsed == 0 {
            return;
        }
        let cell_type = self.config.layout.cell_type(backing);
        let mut row = self.store.materialize(backing.0, now);
        let changed = self.state.retention.apply_decay(backing, cell_type, &mut row, elapsed);
        *row.last_charge_ns = now;
        self.state.stats.decay_flips += changed;
        self.sync_model_stats();
    }

    fn decay_all_materialized(&mut self) {
        for idx in self.store.materialized_rows() {
            self.apply_decay_to(RowId(idx), self.state.clock_ns);
        }
    }

    /// Disturbs the bank-adjacent neighbors of a hammered aggressor.
    fn disturb_neighbors(&mut self, aggressor: RowId) -> Result<(), DramError> {
        for victim in self.config.geometry.adjacent_rows(aggressor)? {
            self.disturb(victim);
        }
        Ok(())
    }

    /// Applies the disturbance flip model to one victim row.
    ///
    /// Each vulnerable word flips at once: the row's vulnerability map is
    /// held as `u64` bitplane masks applied with AND/OR + popcount, and
    /// flip events are logged in ascending bit order. A test-only per-bit
    /// scalar loop over the decoded bit list is its oracle.
    ///
    /// A pass leaves every vulnerable cell at the opposite of its firing
    /// value, so a repeat pass over a row nothing has changed since fires
    /// nothing: the store's settled bit (cleared by every mutable access)
    /// skips it, counting the disturbance alone.
    fn disturb(&mut self, victim: RowId) {
        let planes = self.state.vuln.planes(victim);
        if planes.is_empty() {
            self.state.stats.disturbances += 1;
            self.sync_model_stats();
            return;
        }
        // Disturbance acts on the decayed state if refresh is off.
        if self.state.refresh_disabled_at.is_some() {
            self.apply_decay_to(victim, self.state.clock_ns);
        }
        let clock = self.state.clock_ns;
        #[cfg(test)]
        if self.scalar_reference {
            let bits = self.state.vuln.vulnerable_bits(victim);
            self.disturb_scalar(victim, &bits, clock);
            return;
        }
        if self.store.settled(victim.0) {
            self.state.stats.disturbances += 1;
            self.sync_model_stats();
            return;
        }
        // Read the row in place up to the first word that fires, and take
        // its bytes to change (copying or expanding it) only there, so a
        // pass that fires nothing copies nothing.
        let view = self.store.view(victim.0);
        let first = planes.iter().position(|pw| {
            let word = view.word(pw.word as usize);
            (word & pw.otz) | (!word & pw.zto) != 0
        });
        let mut row = self.store.materialize(victim.0, clock);
        if let Some(first) = first {
            let bytes = row.bytes_mut();
            for pw in &planes[first..] {
                let w = pw.word as usize;
                let word = load_word(bytes, w);
                // A `1→0`-vulnerable cell fires where the word holds a 1; a
                // `0→1` cell where it holds a 0. One AND/OR pass flips every
                // firing cell of the word at once.
                let fire_otz = word & pw.otz;
                let fire_zto = !word & pw.zto;
                let fired = fire_otz | fire_zto;
                if fired == 0 {
                    continue;
                }
                store_word(bytes, w, (word & !fire_otz) | fire_zto);
                self.state.stats.flips_one_to_zero += u64::from(fire_otz.count_ones());
                self.state.stats.flips_zero_to_one += u64::from(fire_zto.count_ones());
                // Per-bit events in ascending bit order (the scalar loop's
                // order: the decoded bit list ascends too).
                let base = 64 * w as u64;
                let mut rest = fired;
                while rest != 0 {
                    let b = rest.trailing_zeros() as u64;
                    let direction = if fire_otz >> b & 1 == 1 {
                        crate::FlipDirection::OneToZero
                    } else {
                        crate::FlipDirection::ZeroToOne
                    };
                    self.state.stats.flip_log.push(FlipEvent::new(
                        victim,
                        base + b,
                        direction,
                        clock,
                    ));
                    rest &= rest - 1;
                }
            }
        }
        self.store.settle(victim.0);
        self.state.stats.disturbances += 1;
        self.sync_model_stats();
    }

    /// The scalar reference of [`Self::disturb`]'s flip pass: one
    /// vulnerable bit at a time.
    #[cfg(test)]
    fn disturb_scalar(&mut self, victim: RowId, bits: &[VulnerableBit], clock: u64) {
        use crate::retention::set_bit;
        let mut row = self.store.materialize(victim.0, clock);
        for vb in bits {
            let current = row.view().bit(vb.bit);
            if current == vb.direction.source_value() {
                set_bit(row.bytes_mut(), vb.bit, !current);
                self.state.stats.record_flip(FlipEvent::new(victim, vb.bit, vb.direction, clock));
            }
        }
        self.state.stats.disturbances += 1;
        self.sync_model_stats();
    }

    /// Mirrors the model-cache eviction counters and model-content byte
    /// gauges into the stats snapshot.
    fn sync_model_stats(&mut self) {
        self.state.stats.vuln_cache_evictions = self.state.vuln.evictions();
        self.state.stats.retention_cache_evictions = self.state.retention.evictions();
        self.state.stats.vuln_cache_bytes = self.state.vuln.map_bytes() as u64;
        self.state.stats.retention_cache_bytes = self.state.retention.long_bytes() as u64;
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::config::DisturbanceParams;
    use crate::geometry::AddressMapping;
    use crate::vuln::FlipDirection;

    fn module() -> DramModule {
        DramModule::new(DramConfig::small_test())
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = module();
        m.write(100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(100, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(m.read(99, 6).unwrap(), vec![0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = module();
        m.write_u64(4096 + 8, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(m.read_u64(4096 + 8).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.peek_u64(4096 + 8).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn cross_row_access() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes();
        let addr = row_bytes - 2;
        m.write(addr, &[9, 8, 7, 6]).unwrap();
        assert_eq!(m.read(addr, 4).unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = module();
        let cap = m.capacity_bytes();
        assert!(m.read(cap, 1).is_err());
        assert!(m.write(cap - 4, &[0; 8]).is_err());
        assert!(m.read_u64(cap - 7).is_err());
    }

    #[test]
    fn fill_works_across_rows() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes();
        m.fill(row_bytes - 10, 20, 0xAA).unwrap();
        assert!(m.read(row_bytes - 10, 20).unwrap().iter().all(|b| *b == 0xAA));
        assert_eq!(m.read(row_bytes + 10, 1).unwrap(), vec![0]);
    }

    #[test]
    fn clock_advances_on_access() {
        let mut m = module();
        let t0 = m.now_ns();
        m.write(0, &[1]).unwrap();
        assert!(m.now_ns() > t0);
    }

    #[test]
    fn row_buffer_hits_do_not_activate() {
        let mut m = module();
        m.write(0, &[1]).unwrap();
        let acts = m.stats().activations;
        m.write(1, &[2]).unwrap(); // same row: hit
        assert_eq!(m.stats().activations, acts);
        m.write(m.geometry().row_bytes(), &[3]).unwrap(); // different row: miss
        assert_eq!(m.stats().activations, acts + 1);
    }

    #[test]
    fn hammer_flips_true_cell_bits_downward_only() {
        let mut m = module();
        // Rows 0..8 are true cells in small_test layout. Fill victim row 2
        // with all-ones and hammer to threshold from both sides.
        let row_bytes = m.geometry().row_bytes() as usize;
        let victim_addr = 2 * m.geometry().row_bytes();
        m.fill(victim_addr, row_bytes, 0xFF).unwrap();
        m.hammer_double_sided(RowId(2)).unwrap();
        let flips: Vec<_> =
            m.stats().flip_log.iter().filter(|e| e.row() == RowId(2)).copied().collect();
        assert!(!flips.is_empty(), "pf=0.02 over 32768 bits should flip something");
        // On all-ones content, only 1→0 flips can fire.
        assert!(flips.iter().all(|e| e.direction() == FlipDirection::OneToZero));
    }

    #[test]
    fn a_decay_or_disturbance_that_changes_nothing_copies_no_row() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes();
        // Row 2 is a true-cell row, row 10 an anti-cell row.
        m.fill(2 * row_bytes, row_bytes as usize, 0xFF).unwrap();
        m.fill(10 * row_bytes, row_bytes as usize, 0xFF).unwrap();
        m.hammer_double_sided(RowId(2)).unwrap();
        let (flips, disturbances) = (m.stats().total_flips(), m.stats().disturbances);
        assert!(flips > 0);
        let held = [2, 10].map(|row| Rc::clone(m.store.buffer(row)));
        let shared = |m: &DramModule, i: usize, row| Rc::ptr_eq(m.store.buffer(row), &held[i]);
        // A repeat pass over row 2 with refresh off: its decay (too short
        // to expire a cell) and its disturbance change nothing.
        m.disable_refresh();
        m.hammer_double_sided(RowId(2)).unwrap();
        assert_eq!(m.stats().total_flips(), flips);
        assert_eq!(m.stats().disturbances, 2 * disturbances);
        assert!(shared(&m, 0, 2), "a pass that fires nothing leaves the row shared");
        // Anti-cells discharge to 1, so an all-ones anti-cell row decays
        // to itself, through a partial window and then a full one.
        let retention = m.config().retention;
        for wait in [(retention.min_ns + retention.max_ns) / 2, retention.long_max_ns] {
            m.advance(wait);
            m.read(10 * row_bytes, 1).unwrap();
            assert!(shared(&m, 1, 10), "after a wait of {wait} ns");
        }
        assert_eq!(m.stats().decay_flips, 0);
        assert_eq!(m.peek(10 * row_bytes, row_bytes as usize).unwrap(), vec![0xFF; 4096]);
        // The true-cell row does decay, fully, into a compact row of its
        // surviving long-retention cells.
        m.read(2 * row_bytes, 1).unwrap();
        assert!(m.stats().decay_flips > 0);
        assert!(!shared(&m, 0, 2) && m.store.is_compact(2));
        // Compact victims: all-ones anti-cell rows (8 to 15), where no cell
        // flips against its leakage direction, fire nothing, and their
        // first-fire scans read them in place.
        let disturbance = DisturbanceParams { reverse_rate: 0.0, ..m.config().disturbance };
        let mut m = DramModule::new(DramConfig { disturbance, ..DramConfig::small_test() });
        m.fill(8 * row_bytes, 8 * row_bytes as usize, 0xFF).unwrap();
        assert!((8..16).all(|row| m.store.is_compact(row)));
        let allocated = crate::row_buffers_allocated();
        m.hammer_double_sided(RowId(10)).unwrap();
        assert!(m.stats().disturbances > 0);
        assert_eq!(m.stats().total_flips(), 0);
        assert!((8..16).all(|row| m.store.is_compact(row)), "a pass that fires nothing");
        assert_eq!(crate::row_buffers_allocated(), allocated);
    }

    #[test]
    fn hammer_below_threshold_flips_nothing() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes() as usize;
        m.fill(2 * m.geometry().row_bytes(), row_bytes, 0xFF).unwrap();
        m.hammer(RowId(1), m.config().disturbance.hammer_threshold / 2).unwrap();
        assert_eq!(m.stats().total_flips(), 0);
    }

    #[test]
    fn refresh_window_resets_hammer_progress() {
        let mut m = module();
        let threshold = m.config().disturbance.hammer_threshold;
        let row_bytes = m.geometry().row_bytes() as usize;
        m.fill(2 * m.geometry().row_bytes(), row_bytes, 0xFF).unwrap();
        // Hammer half, skip past a refresh boundary, hammer half again:
        // never crosses the threshold within one window.
        m.hammer(RowId(1), threshold / 2).unwrap();
        m.advance(m.config().refresh_interval_ns);
        m.hammer(RowId(1), threshold / 2).unwrap();
        assert_eq!(m.stats().total_flips(), 0);
    }

    #[test]
    fn anti_cell_rows_flip_upward() {
        let cfg = DramConfig::small_test();
        let mut m = DramModule::new(cfg);
        // Rows 8..16 are anti-cells. Zero-filled victim: only 0→1 fires.
        let victim = RowId(10);
        let victim_addr = victim.0 * m.geometry().row_bytes();
        m.fill(victim_addr, m.geometry().row_bytes() as usize, 0x00).unwrap();
        m.hammer_double_sided(victim).unwrap();
        let flips: Vec<_> =
            m.stats().flip_log.iter().filter(|e| e.row() == victim).copied().collect();
        assert!(!flips.is_empty());
        assert!(flips.iter().all(|e| e.direction() == FlipDirection::ZeroToOne));
        // And the stored value actually changed.
        let data = m.peek(victim_addr, m.geometry().row_bytes() as usize).unwrap();
        assert!(data.iter().any(|b| *b != 0));
    }

    #[test]
    fn hammering_is_idempotent_on_same_content() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes() as usize;
        let victim_addr = 2 * m.geometry().row_bytes();
        m.fill(victim_addr, row_bytes, 0xFF).unwrap();
        m.hammer_double_sided(RowId(2)).unwrap();
        let after_first = m.peek(victim_addr, row_bytes).unwrap();
        let flips_first = m.stats().total_flips();
        m.advance(m.config().refresh_interval_ns); // new window
        m.hammer_double_sided(RowId(2)).unwrap();
        let after_second = m.peek(victim_addr, row_bytes).unwrap();
        assert_eq!(after_first, after_second, "all vulnerable bits already fired");
        assert_eq!(m.stats().total_flips(), flips_first);
    }

    #[test]
    fn vulnerability_is_deterministic_across_modules() {
        let mut a = module();
        let mut b = module();
        assert_eq!(a.vulnerable_bits(RowId(3)).unwrap(), b.vulnerable_bits(RowId(3)).unwrap());
    }

    #[test]
    fn disable_refresh_decays_data() {
        let mut m = module();
        m.fill(0, m.geometry().row_bytes() as usize, 0xFF).unwrap(); // true-cell row
        m.disable_refresh();
        m.advance(m.config().retention.max_ns + 1);
        let data = m.read(0, m.geometry().row_bytes() as usize).unwrap();
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert!(ones < 100, "true cells should have decayed to ~0, ones={ones}");
        m.enable_refresh();
    }

    #[test]
    fn refresh_prevents_decay() {
        let mut m = module();
        m.fill(0, 64, 0xFF).unwrap();
        m.advance(10 * m.config().retention.max_ns);
        assert!(m.read(0, 64).unwrap().iter().all(|b| *b == 0xFF));
        assert!(m.stats().refresh_windows > 0);
    }

    #[test]
    fn power_off_loses_data_by_polarity() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes();
        m.fill(0, 32, 0xFF).unwrap(); // true-cell row 0
        m.fill(8 * row_bytes, 32, 0x00).unwrap(); // anti-cell row 8
        m.power_off(m.config().retention.long_max_ns + 1);
        assert!(m.read(0, 32).unwrap().iter().all(|b| *b == 0x00));
        assert!(m.read(8 * row_bytes, 32).unwrap().iter().all(|b| *b == 0xFF));
    }

    #[test]
    fn chilled_power_off_stretches_remanence() {
        // The same outage duration: at ambient the data decays; chilled to
        // a 100x retention factor, it survives.
        let outage = DramConfig::small_test().retention.max_ns + 1;
        let mut ambient = module();
        ambient.fill(0, 32, 0xFF).unwrap();
        ambient.power_off(outage);
        // Every *ordinary* cell decays past max_ns; the rare long-retention
        // population (long_fraction = 1e-3) may legitimately survive, so
        // allow a handful of remanent bits rather than demanding zero.
        let survivors: u32 = ambient.read(0, 32).unwrap().iter().map(|b| b.count_ones()).sum();
        assert!(survivors <= 8, "expected near-total ambient decay, {survivors}/256 bits survive");

        let mut chilled = module();
        chilled.fill(0, 32, 0xFF).unwrap();
        chilled.power_off_at_temperature(outage, 100.0);
        assert_eq!(chilled.read(0, 32).unwrap(), vec![0xFF; 32]);
    }

    #[test]
    #[should_panic(expected = "cooling")]
    fn warming_is_rejected() {
        module().power_off_at_temperature(1, 0.5);
    }

    #[test]
    fn short_power_off_preserves_data() {
        let mut m = module();
        m.fill(0, 32, 0xA5).unwrap();
        m.power_off(m.config().retention.min_ns / 2);
        assert_eq!(m.read(0, 32).unwrap(), vec![0xA5; 32]);
    }

    #[test]
    fn remapped_row_keeps_polarity_and_data_separation() {
        let mut m = module();
        // Row 0 and row 2 are both true-cell rows.
        m.write(2 * m.geometry().row_bytes(), &[0x77]).unwrap();
        m.remap_row(RowId(0), RowId(2)).unwrap();
        // Logical row 0 now reads row 2's storage.
        assert_eq!(m.read(0, 1).unwrap(), vec![0x77]);
        assert_eq!(m.cell_type_of_row(RowId(0)).unwrap(), CellType::True);
    }

    #[test]
    fn hammer_time_accounting() {
        let mut m = module();
        let t0 = m.now_ns();
        let n = 1000u64;
        m.hammer(RowId(5), n).unwrap();
        assert_eq!(m.now_ns() - t0, n * m.config().disturbance.trc_ns);
    }

    #[test]
    fn cell_type_queries() {
        let m = module();
        assert_eq!(m.cell_type_of_row(RowId(0)).unwrap(), CellType::True);
        assert_eq!(m.cell_type_of_row(RowId(8)).unwrap(), CellType::Anti);
        assert_eq!(m.cell_type_of_addr(0).unwrap(), CellType::True);
        assert!(m.cell_type_of_row(RowId(9999)).is_err());
    }

    #[test]
    fn row_cache_never_serves_stale_remaps() {
        let mut m = module();
        let row_bytes = m.geometry().row_bytes();
        // Warm the resolve cache on both rows, then swap them.
        m.write(10, &[0xAB]).unwrap();
        m.write(2 * row_bytes + 10, &[0xCD]).unwrap();
        assert_eq!(m.peek(10, 1).unwrap(), vec![0xAB]);
        m.remap_row(RowId(0), RowId(2)).unwrap();
        // Swap semantics: logical row 0 now reads row 2's storage and vice
        // versa, regardless of what the cache held before the remap.
        assert_eq!(m.peek(10, 1).unwrap(), vec![0xCD]);
        assert_eq!(m.peek(2 * row_bytes + 10, 1).unwrap(), vec![0xAB]);
        assert_eq!(m.read(10, 1).unwrap(), vec![0xCD]);
    }

    #[test]
    fn remap_out_of_bounds_rejected() {
        let mut m = module();
        assert!(m.remap_row(RowId(0), RowId(9999)).is_err());
        assert!(m.remap_row(RowId(9999), RowId(0)).is_err());
    }

    use proptest::prelude::*;

    proptest! {
        // Random reads/writes/fills/peeks against a flat shadow buffer:
        // with refresh running and no hammering, DRAM must behave exactly
        // like plain memory, whatever the open-row cache, remap cache, and
        // span splitting do internally.
        #[test]
        fn data_path_matches_flat_shadow(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..(256 * 1024), 0usize..96, 0u8..255),
                1..32,
            )
        ) {
            let mut m = module();
            let cap = m.capacity_bytes();
            let mut shadow = vec![0u8; cap as usize];
            for (kind, addr, len, byte) in ops {
                let addr = addr % cap;
                let len = len.min((cap - addr) as usize);
                let lo = addr as usize;
                match kind {
                    0 => {
                        let data: Vec<u8> =
                            (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                        m.write(addr, &data).unwrap();
                        shadow[lo..lo + len].copy_from_slice(&data);
                    }
                    1 => {
                        m.fill(addr, len, byte).unwrap();
                        shadow[lo..lo + len].fill(byte);
                    }
                    2 => {
                        let got = m.read(addr, len).unwrap();
                        prop_assert_eq!(&got[..], &shadow[lo..lo + len]);
                    }
                    _ => {
                        let got = m.peek(addr, len).unwrap();
                        prop_assert_eq!(&got[..], &shadow[lo..lo + len]);
                        if len >= 8 {
                            prop_assert_eq!(
                                m.peek_u64(addr).unwrap(),
                                m.read_u64(addr).unwrap()
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(m.peek(0, cap as usize).unwrap(), shadow);
        }
    }

    /// Full observable state of a module, for byte-identity assertions.
    #[cfg(test)]
    fn observe(m: &DramModule) -> (Vec<u8>, Vec<u64>, u64, String, usize) {
        let contents = m.peek(0, m.capacity_bytes() as usize).unwrap();
        let charges: Vec<u64> = (0..m.geometry().total_rows())
            .map(|r| match m.store.last_charge_ns(r) {
                Some(c) => c + 1,
                None => 0,
            })
            .collect();
        (contents, charges, m.now_ns(), format!("{:?}", m.stats()), m.rows_materialized())
    }

    #[test]
    fn journal_rollback_restores_the_module_byte_identically() {
        let mut m = module();
        m.fill(0, 128, 0xFF).unwrap();
        m.write_u64(4096 + 16, 0x1234_5678).unwrap();
        let before = observe(&m);

        m.journal_begin();
        assert!(m.journal_active());
        // A trial-shaped mutation mix: writes (materializing fresh
        // rows), hammering past the threshold, a refresh outage with
        // decay, a remap, a flip-log drain, and a power cycle.
        m.fill(3 * 4096, 4096, 0xA5).unwrap();
        m.hammer_double_sided(RowId(2)).unwrap();
        m.disable_refresh();
        m.advance(m.config().retention.max_ns + 1);
        m.enable_refresh();
        m.remap_row(RowId(4), RowId(6)).unwrap();
        let _ = m.take_flip_log();
        m.power_off(m.config().retention.min_ns / 2);
        assert!(m.store.journaled_rows().next().is_some());

        m.journal_rollback();
        assert!(!m.journal_active());
        assert_eq!(observe(&m), before);
        assert!(m.remap_table().is_empty());
    }

    #[test]
    fn journal_rollback_unmaterializes_fresh_rows() {
        let mut m = module();
        let base = m.rows_materialized();
        m.journal_begin();
        m.write(5 * 4096, &[1, 2, 3]).unwrap();
        assert!(m.rows_materialized() > base);
        m.journal_rollback();
        assert_eq!(m.rows_materialized(), base);
    }

    #[test]
    fn reading_unwritten_rows_journals_nothing() {
        let mut m = module();
        m.journal_begin();
        m.read(5 * 4096, 16).unwrap();
        m.refresh_neighbors_of(RowId(5)).unwrap();
        assert_eq!(m.store.journaled_rows().count(), 0);
        m.write(5 * 4096, &[1]).unwrap();
        assert_eq!(m.store.journaled_rows().collect::<Vec<_>>(), vec![5]);
        m.journal_rollback();
    }

    #[test]
    fn forked_module_diverges_without_affecting_parent() {
        let mut parent = module();
        parent.fill(0, 4096, 0xFF).unwrap();
        let before = parent.peek(0, 4096).unwrap();

        let mut child = parent.fork();
        assert_eq!(child.peek(0, 4096).unwrap(), before);
        child.fill(0, 4096, 0x00).unwrap();
        child.hammer_double_sided(RowId(2)).unwrap();

        assert_eq!(parent.peek(0, 4096).unwrap(), before);
        assert_eq!(parent.stats().total_flips(), 0);
        // The child really diverged (zero-filled, modulo rare 0→1 reverse
        // flips from the hammer): nothing close to the parent's all-ones.
        let child_ones: u32 = child.peek(0, 4096).unwrap().iter().map(|b| b.count_ones()).sum();
        assert!(child_ones < 100, "ones={child_ones}");
    }

    #[test]
    #[should_panic(expected = "active journal")]
    fn forking_with_an_active_journal_is_refused() {
        let mut m = module();
        m.journal_begin();
        let _ = m.fork();
    }

    #[test]
    fn rows_wider_than_the_cap_are_a_typed_error() {
        let config = |row_bytes| DramConfig {
            geometry: DramGeometry::new(row_bytes, 2, 1, AddressMapping::RowLinear),
            ..DramConfig::small_test()
        };
        // Sparse rows cost nothing until written, so the widest row is cheap.
        assert!(DramModule::try_new(config(MAX_ROW_BYTES)).is_ok());
        for row_bytes in [MAX_ROW_BYTES * 2, 1 << 40] {
            let err = DramModule::try_new(config(row_bytes)).err();
            assert_eq!(err, Some(DramError::RowTooWide { row_bytes }));
        }
    }

    #[test]
    fn more_rows_than_the_cap_are_a_typed_error() {
        // Refused before any per-row table is reserved, so no host memory
        // is asked for.
        for (rows_per_bank, banks) in [(MAX_ROWS + 1, 1), (MAX_ROWS / 2 + 1, 2), (1 << 50, 4)] {
            let config = DramConfig {
                geometry: DramGeometry::new(4096, rows_per_bank, banks, AddressMapping::RowLinear),
                ..DramConfig::small_test()
            };
            let rows = rows_per_bank * banks as u64;
            let err = DramModule::try_new(config).err();
            assert_eq!(err, Some(DramError::TooManyRows { rows }));
        }
    }

    #[test]
    fn interleaved_mapping_hammer_hits_stride_neighbors() {
        let mut cfg = DramConfig::small_test();
        cfg.geometry = DramGeometry::new(4096, 16, 4, AddressMapping::BankInterleaved);
        cfg.layout = CellLayout::AllTrue;
        cfg.disturbance = DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() };
        let mut m = DramModule::new(cfg);
        // Row 5's bank neighbors are rows 1 and 9.
        for r in [1u64, 9] {
            m.fill(r * 4096, 4096, 0xFF).unwrap();
        }
        m.hammer_to_threshold(RowId(5)).unwrap();
        let flipped_rows: std::collections::HashSet<u64> =
            m.stats().flip_log.iter().map(|e| e.row().0).collect();
        assert!(flipped_rows.is_subset(&[1u64, 9].into_iter().collect()));
        assert!(!flipped_rows.is_empty());
    }
}
