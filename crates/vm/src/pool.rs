//! Boot-once parent-kernel pools for fork-per-trial services.
//!
//! Booting a kernel — building page tables, profiling true/anti-cells,
//! compiling the vulnerability map — dominates a trial's cost. A
//! long-running campaign service therefore keeps *parent* kernels (one per
//! distinct boot configuration) alive and, with
//! [`KernelPool::run_journaled`], runs each trial **in place** on its
//! parent under an undo journal and rolls it back — or hands out a
//! [`Kernel::fork`] of the parent per trial, which shares the parent's
//! DRAM rows copy-on-write: O(rows) reference bumps, not row copies.
//!
//! [`KernelPool`] is that cache: an LRU map from an opaque configuration
//! key to a booted parent, order-indexed (hash map plus a recency-stamped
//! [`BTreeMap`]) so hits, touches, and LRU evictions are all O(log
//! parents) instead of the former O(parents) scan-and-rotate. It is
//! deliberately **not** thread-safe — `Kernel` is `!Send` by design (its
//! DRAM model shares `Rc` state), so a pool lives inside one worker's
//! local context and parents never cross threads. The executor layer
//! gives each worker its own pool per tenant; the capacity fixed at
//! [`KernelPool::new`] bounds a pool's resident memory at O(parents +
//! in-flight forks), each parent's model caches at their row capacity.
//!
//! Determinism: `fork()` of a freshly-booted kernel is bit-identical to a
//! second boot from the same config (pinned by the fork-isolation
//! suites), and a journaled trial's rollback restores the parent
//! byte-identically (pinned by the isolation differential suites), so
//! *how* a trial's kernel was served — pool hit, fresh boot, fork, or
//! in-place journal — is invisible in its results.
//!
//! A parent abandoned mid-journal (a trial body that panicked before its
//! rollback) is repaired defensively: the pool rolls the open journal
//! back before the parent is forked, served again, or evicted, so dirty
//! trial state can never leak into a later trial.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::error::VmError;
use crate::kernel::Kernel;

/// Cumulative counters for one [`KernelPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parents booted because no cached parent matched the key.
    pub boots: u64,
    /// Trials served from an already-resident parent.
    pub fork_hits: u64,
    /// The subset of trials served in place under an undo journal.
    pub journal_runs: u64,
    /// Parents evicted (LRU) to stay within capacity.
    pub evictions: u64,
}

/// One resident parent: its booted kernel, the recency stamp indexing it
/// in the pool's LRU order, and its row-content bytes at boot.
#[derive(Debug)]
struct Parent {
    stamp: u64,
    kernel: Kernel,
    /// `DramModule::row_store_bytes` at boot: a journaled trial's rollback
    /// leaves the parent holding exactly the buffers it held before.
    row_bytes: u64,
}

/// An LRU cache of booted parent kernels, keyed by an opaque
/// configuration key `K`.
#[derive(Debug)]
pub struct KernelPool<K: Eq + Hash + Clone> {
    parents: HashMap<K, Parent>,
    /// Recency index: stamp → key, smallest stamp least-recently used.
    /// Stamps are unique (monotonic counter), so this is a total order.
    order: BTreeMap<u64, K>,
    next_stamp: u64,
    capacity: usize,
    stats: PoolStats,
}

impl<K: Eq + Hash + Clone> KernelPool<K> {
    /// Creates a pool holding at most `capacity` parents (clamped to 1).
    pub fn new(capacity: usize) -> Self {
        KernelPool {
            parents: HashMap::new(),
            order: BTreeMap::new(),
            next_stamp: 0,
            capacity: capacity.max(1),
            stats: PoolStats::default(),
        }
    }

    /// Returns a fork of the parent for `key`, booting (and caching) the
    /// parent via `boot` if it is not resident. The touched parent moves
    /// to most-recently-used; a boot that overflows capacity evicts the
    /// least-recently-used parent first.
    ///
    /// # Errors
    ///
    /// Propagates the boot error; the pool is unchanged in that case.
    pub fn fork_for<F>(&mut self, key: &K, boot: F) -> Result<Kernel, VmError>
    where
        F: FnOnce() -> Result<Kernel, VmError>,
    {
        self.ensure_resident(key, boot)?;
        Ok(self.parents.get(key).expect("parent just ensured").kernel.fork())
    }

    /// Runs `trial` **in place** on the parent for `key` under an undo
    /// journal, rolling the parent back afterwards — the O(touched state)
    /// alternative to [`Self::fork_for`]. The parent is booted via `boot`
    /// if not resident and touched to most-recently-used exactly as a
    /// fork would.
    ///
    /// # Errors
    ///
    /// Propagates the boot error; the pool is unchanged in that case.
    pub fn run_journaled<F, B, R>(&mut self, key: &K, boot: B, trial: F) -> Result<R, VmError>
    where
        B: FnOnce() -> Result<Kernel, VmError>,
        F: FnOnce(&mut Kernel) -> R,
    {
        self.ensure_resident(key, boot)?;
        self.stats.journal_runs += 1;
        let kernel = &mut self.parents.get_mut(key).expect("parent just ensured").kernel;
        kernel.journal_begin();
        let out = trial(kernel);
        kernel.journal_rollback();
        Ok(out)
    }

    /// Boots or touches the parent for `key`, repairing any journal left
    /// open by an abandoned trial so the caller always sees a clean
    /// parent.
    fn ensure_resident<B>(&mut self, key: &K, boot: B) -> Result<(), VmError>
    where
        B: FnOnce() -> Result<Kernel, VmError>,
    {
        if let Some(parent) = self.parents.get_mut(key) {
            if parent.kernel.journal_active() {
                parent.kernel.journal_rollback();
            }
            self.order.remove(&parent.stamp);
            parent.stamp = self.next_stamp;
            self.order.insert(self.next_stamp, key.clone());
            self.next_stamp += 1;
            self.stats.fork_hits += 1;
            return Ok(());
        }
        let kernel = boot()?;
        self.stats.boots += 1;
        if self.parents.len() >= self.capacity {
            self.evict_lru();
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(stamp, key.clone());
        let row_bytes = kernel.dram().row_store_bytes() as u64;
        self.parents.insert(key.clone(), Parent { stamp, kernel, row_bytes });
        Ok(())
    }

    /// Evicts the least-recently-used parent. A parent abandoned with an
    /// open journal is rolled back first, so its drop never carries dirty
    /// trial state (and a caller holding stale observations of it — model
    /// cache gauges, for instance — saw the clean parent).
    fn evict_lru(&mut self) {
        let Some((_, key)) = self.order.pop_first() else { return };
        let mut parent = self.parents.remove(&key).expect("order and parents agree");
        if parent.kernel.journal_active() {
            parent.kernel.journal_rollback();
        }
        self.stats.evictions += 1;
    }

    /// Number of resident parents.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if no parents are resident.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// True if a parent for `key` is resident.
    pub fn contains(&self, key: &K) -> bool {
        self.parents.contains_key(key)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Total DRAM model-cache bytes held by resident parents, published
    /// as a memory gauge.
    pub fn model_cache_bytes(&self) -> u64 {
        self.parents.values().map(|p| p.kernel.dram().model_cache_bytes() as u64).sum()
    }

    /// Bytes of DRAM row contents held by resident parents, each parent's
    /// shared buffers counted once (see `DramModule::row_store_bytes`). A
    /// journaled trial's rollback leaves its parent holding exactly the
    /// buffers it held before, so each parent's count is taken once, when
    /// it boots, and this changes only when a parent boots or is evicted.
    pub fn row_store_bytes(&self) -> u64 {
        self.parents.values().map(|p| p.row_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use cta_dram::{AddressMapping, DramGeometry};

    use super::*;
    use crate::kernel::{Kernel, KernelConfig};

    fn boot() -> Result<Kernel, VmError> {
        Kernel::new(KernelConfig::small_test())
    }

    #[test]
    fn second_fork_hits_the_cached_parent() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        let first = pool.fork_for(&7, boot).expect("boot");
        let second = pool.fork_for(&7, boot).expect("fork hit");
        let stats = pool.stats();
        assert_eq!((stats.boots, stats.fork_hits), (1, 1));
        assert_eq!(pool.len(), 1);
        // Hit and miss forks are the same machine.
        assert_eq!(
            first.dram().config().geometry.row_bytes(),
            second.dram().config().geometry.row_bytes()
        );
    }

    #[test]
    fn lru_eviction_keeps_recently_used_parents() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        pool.fork_for(&1, boot).expect("boot 1");
        pool.fork_for(&2, boot).expect("boot 2");
        pool.fork_for(&1, boot).expect("hit 1"); // 1 is now MRU
        pool.fork_for(&3, boot).expect("boot 3"); // evicts 2
        assert!(pool.contains(&1) && pool.contains(&3) && !pool.contains(&2));
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn failed_boot_leaves_pool_unchanged() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        pool.fork_for(&1, boot).expect("boot 1");
        let err = pool.fork_for(&2, || Err(VmError::NoSuchFile));
        assert!(err.is_err());
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().boots, 1);
    }

    #[test]
    fn a_profiled_cta_parent_shares_its_uniform_rows() {
        // The spray-pool benchmark's machine size: a 16 MiB CTA parent.
        let mut config = KernelConfig { profile_cells: true, ..KernelConfig::small_test_cta() };
        config.dram.geometry = DramGeometry::new(4096, 4096, 1, AddressMapping::RowLinear);
        let kernel = Kernel::new(config.clone()).expect("boot");
        let dram = kernel.dram();
        let row_bytes = dram.geometry().row_bytes() as usize;
        // Profiling leaves the anti-cell half of the rows all ones and the
        // true-cell half all zeros but for their long-retention cells: all
        // of them compact, so the 16 MiB parent holds under 1 MiB.
        let (held, materialized) = (dram.row_store_bytes(), dram.rows_materialized() * row_bytes);
        assert_eq!(materialized, 16 << 20);
        assert!(held < 1 << 20, "{held} of {materialized} bytes");
        // A trial's rollback leaves the parent holding the same buffers.
        let mut pool: KernelPool<u32> = KernelPool::new(1);
        let trial = |k: &mut Kernel| {
            let dram = k.dram_mut();
            dram.fill(0, 3 * row_bytes + 100, 0x5A).expect("in range");
            dram.write_u64(1 << 20, u64::MAX).expect("in range");
        };
        for _ in 0..2 {
            pool.run_journaled(&0, || Kernel::new(config.clone()), trial).expect("boot");
            assert_eq!(pool.row_store_bytes(), held as u64);
            let parent = pool.fork_for(&0, || unreachable!("resident")).expect("resident");
            assert_eq!(parent.dram().row_store_bytes(), held);
        }
    }

    #[test]
    fn journaled_run_leaves_the_parent_clean_and_counts_a_hit() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        let reference = pool.fork_for(&1, boot).expect("boot");
        let before = reference.dram().stats().clone();
        let flips = pool
            .run_journaled(&1, boot, |kernel| {
                kernel.dram_mut().fill(0, 4096, 0xFF).expect("fill");
                kernel.dram_mut().hammer_double_sided(cta_dram::RowId(2)).expect("hammer");
                kernel.dram_mut().stats().total_flips()
            })
            .expect("journaled trial");
        assert!(flips > 0, "the trial really ran");
        // The parent rolled back: a fresh fork matches the pre-trial fork.
        let after = pool.fork_for(&1, boot).expect("fork");
        assert_eq!(after.dram().stats(), &before);
        let stats = pool.stats();
        assert_eq!((stats.boots, stats.fork_hits, stats.journal_runs), (1, 2, 1));
    }

    #[test]
    fn eviction_rolls_back_an_abandoned_journal() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        pool.fork_for(&1, boot).expect("boot 1");
        // Simulate a trial that panicked mid-journal: the resident parent
        // is left with an open journal and dirty state.
        pool.parents.get_mut(&1).expect("resident").kernel.journal_begin();
        pool.parents
            .get_mut(&1)
            .expect("resident")
            .kernel
            .dram_mut()
            .fill(0, 4096, 0xAA)
            .expect("dirty the parent");
        assert!(pool.parents[&1].kernel.journal_active());

        // Capacity pressure evicts the abandoned parent: the journal must
        // be rolled back before the drop (evicting a dirty parent would
        // otherwise be the one path where trial state escapes).
        pool.fork_for(&2, boot).expect("boot 2");
        pool.fork_for(&3, boot).expect("boot 3 evicts 1");
        assert!(!pool.contains(&1));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn serving_a_parent_with_an_abandoned_journal_repairs_it_first() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        let clean = pool.fork_for(&1, boot).expect("boot");
        let want = clean.dram().peek(0, 64).expect("peek");
        pool.parents.get_mut(&1).expect("resident").kernel.journal_begin();
        pool.parents
            .get_mut(&1)
            .expect("resident")
            .kernel
            .dram_mut()
            .fill(0, 64, 0xEE)
            .expect("dirty the parent");

        // A fork served from the abandoned parent must see the clean
        // (rolled-back) machine, not the dead trial's bytes.
        let fork = pool.fork_for(&1, boot).expect("fork repairs");
        assert_eq!(fork.dram().peek(0, 64).expect("peek"), want);
        assert!(!pool.parents[&1].kernel.journal_active());
    }
}
