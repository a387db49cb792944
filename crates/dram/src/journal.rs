//! Write-ahead undo journal for [`crate::DramModule`].
//!
//! A journaled trial runs **in place** on a pooled parent module and rolls
//! back in O(touched state) instead of paying a full fork per trial. The
//! journal has two planes:
//!
//! - **Row pre-images** (the lazily-journaled plane): the first time a
//!   trial dirties a backing row — a write, a charge touch, decay, or a
//!   disturbance — the row's full pre-image (cell bytes + charge
//!   timestamp) is captured, or a `None` marker if the row had never been
//!   materialized. Rollback restores captured rows byte-for-byte and
//!   unmaterializes the `None`-marked ones. This is
//!   the plane that makes journaling cheap: a trial that touches a few
//!   dozen rows of a multi-megabyte machine journals a few dozen rows.
//! - **Snapshots** (the eagerly-journaled plane): everything else the
//!   module mutates — the model caches' accounting (which rows each cache
//!   holds, their weights, FIFO order, evictions and bytes), remap table,
//!   clock/window state, activation counters, open-row registers,
//!   statistics (including the bounded flip log, so `take_flip_log` drains
//!   and capacity changes roll back exactly), and the installed defense —
//!   is cloned wholesale at `journal_begin`. This is O(cached rows + total
//!   rows) words of metadata, orders of magnitude smaller than the row
//!   contents a fork would copy.
//!
//! **Not journaled:** the model maps themselves — vulnerability maps, and
//! the retention model's long-cell lists, expired-cell masks and sorted
//! retention index. They live in row-map stores the module shares with
//! its forks and its journal snapshots, and each map is a pure function
//! of the module's fixed inputs and its key (the row, plus the decay
//! window and row bits for the retention maps), so rollback leaves the
//! stores as the trial left them. The next trial on the parent finds
//! every map an earlier trial built instead of regenerating it, while its
//! accounting — the only part telemetry can see — starts from the
//! restored snapshot.
//!
//! The rollback invariant — pinned by the differential suites — is that a
//! module after `journal_begin → trial → journal_rollback` is
//! byte-identical (contents, charge plane, cache accounting, stats, clock)
//! to the module before `journal_begin`.
//!
//! The journal also bounds what a trial can have changed: every logical
//! row below [`DramJournal::first_dirty_row`] still holds its base
//! contents, which is what lets `contents_hash` resume from a checkpoint
//! instead of starting at row 0.

use std::collections::HashMap;

use crate::defense::{DefenseStats, RowDefense};
use crate::geometry::RowId;
use crate::remap::RemapTable;
use crate::retention::RetentionModel;
use crate::stats::DramStats;
use crate::store::SparseStore;
use crate::vuln::VulnerabilityModel;

/// Pre-image of one backing row at `journal_begin` time: `Some((bytes,
/// last_charge_ns))` if the row was materialized, `None` if it was not.
pub(crate) type RowPreImage = Option<(Box<[u8]>, u64)>;

/// The undo journal of one in-place trial. Constructed by
/// `DramModule::journal_begin`, consumed by `DramModule::journal_rollback`.
pub(crate) struct DramJournal {
    /// Lazily-captured row pre-images, keyed by backing-row id.
    pub(crate) rows: HashMap<u64, RowPreImage>,
    /// Lowest logical row whose backing row a remap during the journal
    /// changed (`u64::MAX` if none).
    pub(crate) remapped: u64,
    pub(crate) vuln: VulnerabilityModel,
    pub(crate) retention: RetentionModel,
    pub(crate) remap: RemapTable,
    pub(crate) row_cache: (u64, u64),
    pub(crate) clock_ns: u64,
    pub(crate) window_end_ns: u64,
    pub(crate) refresh_disabled_at: Option<u64>,
    pub(crate) generation: u64,
    pub(crate) activations: Vec<(u64, u64, u64)>,
    pub(crate) open_rows: Vec<u64>,
    pub(crate) stats: DramStats,
    pub(crate) defense: Option<Box<dyn RowDefense>>,
    pub(crate) defense_stats: DefenseStats,
}

impl DramJournal {
    /// Captures `row`'s pre-image on first touch; later touches of the
    /// same row are O(1) no-ops. Must be called *before* the mutation.
    #[inline]
    pub(crate) fn capture_row(&mut self, row: u64, store: &SparseStore) {
        self.rows.entry(row).or_insert_with(|| {
            store.last_charge_ns(row).map(|charge| {
                (store.bytes(row).expect("materialized row has bytes").into(), charge)
            })
        });
    }

    /// The lowest logical row whose contents may differ from the base
    /// contents (`u64::MAX` if none): the remapped rows and the logical
    /// rows of every captured backing row. Remapping is a swap, so
    /// `remap` maps a backing row back to its logical row.
    pub(crate) fn first_dirty_row(&self, remap: &RemapTable) -> u64 {
        self.rows.keys().map(|&row| remap.resolve(RowId(row)).0).fold(self.remapped, u64::min)
    }

    /// Number of distinct rows captured so far (dirty-row footprint).
    pub(crate) fn dirty_rows(&self) -> usize {
        self.rows.len()
    }
}
