//! Write-ahead undo journal for [`crate::DramModule`].
//!
//! A journaled trial runs **in place** on a pooled parent module and rolls
//! back in O(touched state) instead of paying a full fork per trial. The
//! journal has two planes:
//!
//! - **Row pre-images** (the lazily-journaled plane), kept by the row
//!   store itself: every change to a row — a write, a fill, a charge
//!   touch, decay, a disturbance, a neighbor or targeted refresh — passes
//!   one private funnel in `SparseStore`, which saves the row's slot
//!   before its first change (its bytes, charge timestamp and settled
//!   bit, or `None` if the row had never been materialized). The bytes
//!   are a copy-on-write `Rc<[u8]>`, so the pre-image shares the row's
//!   buffer and saving it copies nothing; the row is copied only when its
//!   bytes first change, and a row the trial only reads (which recharges
//!   it) is never copied. Rollback moves each saved slot back, so a row
//!   the trial created is unmaterialized again, and hands the trial's
//!   copies to a per-thread spare list that the next trial's copies come
//!   from. No caller has to remember a hook, and a read of a row that was
//!   never written changes nothing and saves nothing. This is the plane
//!   that makes journaling cheap: a trial that touches a few dozen rows of
//!   a multi-megabyte machine journals a few dozen rows.
//! - **State snapshot** (the eagerly-journaled plane): everything else the
//!   module mutates lives in one `ModuleState` struct — the model caches'
//!   accounting (which rows each cache holds, their weights, FIFO order,
//!   evictions and bytes), remap table, clock/window state, activation
//!   counters, open-row registers, statistics (including the bounded flip
//!   log, so `take_flip_log` drains and capacity changes roll back
//!   exactly), and the installed defense — which `journal_begin` copies
//!   into the previous journal's snapshot with `clone_from`, reusing its
//!   tables, and `journal_rollback` swaps back, as `fork` clones it. The
//!   struct's `Clone` comes from [`clone_fields!`](crate::clone_fields),
//!   which lists every field: a field added to the struct but not to the
//!   list is a compile error, and once listed it is forked, journaled and
//!   rolled back with no other edit. This is O(cached rows + total rows)
//!   words of metadata, orders of magnitude smaller than the row
//!   contents.
//!
//! **Not journaled:** the model maps themselves — vulnerability maps and
//! the retention model's long-cell lists. They live in row-map stores the
//! module shares with its forks and its journal snapshots, and each map is
//! a pure function of the module's fixed inputs and its row, so rollback
//! leaves the stores as the trial left them. The next trial on the parent
//! finds every map an earlier trial built instead of regenerating it,
//! while its accounting — the only part telemetry can see — starts from
//! the restored snapshot. Likewise the row store's `contents_hash`
//! checkpoints and row digests: both describe the contents no journal
//! has changed, which rollback restores, so a trial leaves them (a row it
//! changes is saved and hashes from its bytes meanwhile) and the next
//! trial reuses them. Only a change outside a journal drops them.
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

use crate::geometry::RowId;
use crate::module::ModuleState;
use crate::remap::RemapTable;
use crate::store::SparseStore;

/// Implements `Clone` for a struct field by field, with a `clone_from`
/// that calls each field's own `clone_from`, so a `Vec` field reuses its
/// capacity: a journal snapshot copied into last trial's snapshot
/// allocates nothing for tables that kept their size. Both methods
/// destructure the struct with no `..` rest pattern, so a field missing
/// from the list is a compile error, and a snapshot stays complete by
/// construction.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct State {
///     table: Vec<u64>,
///     clock: u64,
/// }
/// cta_dram::clone_fields!(State { table, clock });
///
/// let mut snapshot = State { table: Vec::with_capacity(8), clock: 0 };
/// let state = State { table: vec![1, 2, 3], clock: 7 };
/// snapshot.clone_from(&state);
/// assert_eq!(snapshot, state);
/// assert_eq!(snapshot.table.capacity(), 8);
/// ```
#[macro_export]
macro_rules! clone_fields {
    ($ty:ident $(<$($param:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($param: Clone),+>)? Clone for $ty$(<$($param),+>)? {
            fn clone(&self) -> Self {
                let Self { $($field),+ } = self;
                Self { $($field: Clone::clone($field)),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let Self { $($field),+ } = self;
                $(Clone::clone_from($field, &source.$field);)+
            }
        }
    };
}

/// The module half of the undo journal of one in-place trial (the store
/// keeps the row pre-images). Constructed by `DramModule::journal_begin`,
/// consumed by `DramModule::journal_rollback`.
pub(crate) struct DramJournal {
    /// The module state at `journal_begin`.
    pub(crate) snapshot: ModuleState,
    /// Lowest logical row whose backing row a remap during the journal
    /// changed (`u64::MAX` if none).
    pub(crate) remapped: u64,
}

impl DramJournal {
    /// The lowest logical row whose contents may differ from the base
    /// contents (`u64::MAX` if none): the remapped rows and the logical
    /// rows of every backing row the store journaled. Remapping is a swap,
    /// so `remap` maps a backing row back to its logical row.
    pub(crate) fn first_dirty_row(&self, store: &SparseStore, remap: &RemapTable) -> u64 {
        store.journaled_rows().map(|row| remap.resolve(RowId(row)).0).fold(self.remapped, u64::min)
    }
}
