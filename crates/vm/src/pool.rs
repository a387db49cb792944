//! Boot-once parent-kernel pools for journal-per-trial services.
//!
//! Booting a kernel — building page tables, profiling true/anti-cells,
//! compiling the vulnerability map — dominates a trial's cost. A
//! long-running campaign service therefore keeps *parent* kernels (one per
//! distinct boot configuration) alive and, with
//! [`KernelPool::run_journaled`], runs each trial **in place** on its
//! parent under an undo journal and rolls it back: O(touched state) per
//! trial.
//!
//! [`KernelPool`] is that cache: an LRU map from an opaque configuration
//! key to a booted parent, order-indexed (hash map plus a recency-stamped
//! [`BTreeMap`]) so hits, touches, and LRU evictions are all O(log
//! parents) instead of the former O(parents) scan-and-rotate. It is
//! deliberately **not** thread-safe — `Kernel` is `!Send` by design (its
//! DRAM model shares `Rc` state), so a pool lives inside one worker's
//! local context and parents never cross threads. The executor layer
//! gives each worker its own pool per tenant; the capacity fixed at
//! [`KernelPool::new`] bounds a pool's resident memory at O(parents),
//! each parent's model caches at their row capacity.
//!
//! Determinism: a journaled trial's rollback restores the parent
//! byte-identically to a [`Kernel::fork`] taken before the trial (pinned
//! by the journal fuzzers), and a fork of a fresh boot is bit-identical
//! to a second boot (pinned by the fork-isolation suite), so whether a
//! trial's parent was a pool hit or a fresh boot is invisible in its
//! results.
//!
//! A parent abandoned mid-journal (a trial body that panicked before its
//! rollback) is repaired defensively: the pool rolls the open journal
//! back before the parent is served again or evicted, so dirty trial
//! state can never leak into a later trial.

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
    pub hits: u64,
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

    /// Runs `trial` **in place** on the parent for `key` under an undo
    /// journal, rolling the parent back afterwards. The parent is booted
    /// (and cached) via `boot` if it is not resident. The touched parent
    /// moves to most-recently-used; a boot that overflows capacity evicts
    /// the least-recently-used parent first.
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
            self.stats.hits += 1;
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

    /// Serves an empty trial on the parent for `key`.
    fn touch(pool: &mut KernelPool<u32>, key: u32) -> Result<(), VmError> {
        pool.run_journaled(&key, boot, |_| ())
    }

    #[test]
    fn second_run_hits_the_cached_parent() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        let row_bytes = |k: &mut Kernel| k.dram().config().geometry.row_bytes();
        let first = pool.run_journaled(&7, boot, row_bytes).expect("boot");
        let second = pool.run_journaled(&7, boot, row_bytes).expect("pool hit");
        let stats = pool.stats();
        assert_eq!((stats.boots, stats.hits), (1, 1));
        assert_eq!(pool.len(), 1);
        // Hit and miss runs see the same machine.
        assert_eq!(first, second);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_parents() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        touch(&mut pool, 1).expect("boot 1");
        touch(&mut pool, 2).expect("boot 2");
        touch(&mut pool, 1).expect("hit 1"); // 1 is now MRU
        touch(&mut pool, 3).expect("boot 3"); // evicts 2
        assert!(pool.contains(&1) && pool.contains(&3) && !pool.contains(&2));
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn failed_boot_leaves_pool_unchanged() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        touch(&mut pool, 1).expect("boot 1");
        let err = pool.run_journaled(&2, || Err(VmError::NoSuchFile), |_| unreachable!("no boot"));
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
            let parent = pool
                .run_journaled(&0, || unreachable!("resident"), |k| k.dram().row_store_bytes())
                .expect("resident");
            assert_eq!(parent, held);
        }
    }

    #[test]
    fn journaled_run_leaves_the_parent_clean_and_counts_a_hit() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        let stats = |k: &mut Kernel| k.dram().stats().clone();
        let before = pool.run_journaled(&1, boot, stats).expect("boot");
        let flips = pool
            .run_journaled(&1, boot, |kernel| {
                kernel.dram_mut().fill(0, 4096, 0xFF).expect("fill");
                kernel.dram_mut().hammer_double_sided(cta_dram::RowId(2)).expect("hammer");
                kernel.dram_mut().stats().total_flips()
            })
            .expect("journaled trial");
        assert!(flips > 0, "the trial really ran");
        // The parent rolled back: the next trial sees the pre-trial stats.
        let after = pool.run_journaled(&1, boot, stats).expect("pool hit");
        assert_eq!(after, before);
        let pool_stats = pool.stats();
        assert_eq!((pool_stats.boots, pool_stats.hits), (1, 2));
    }

    /// Leaves the resident parent for `key` as a trial that panicked
    /// mid-journal would: with an open journal and `len` dirty bytes.
    fn abandon_a_journal(pool: &mut KernelPool<u32>, key: u32, len: usize, byte: u8) {
        let kernel = &mut pool.parents.get_mut(&key).expect("resident").kernel;
        kernel.journal_begin();
        kernel.dram_mut().fill(0, len, byte).expect("dirty the parent");
        assert!(kernel.journal_active());
    }

    #[test]
    fn eviction_rolls_back_an_abandoned_journal() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        touch(&mut pool, 1).expect("boot 1");
        abandon_a_journal(&mut pool, 1, 4096, 0xAA);

        // Capacity pressure evicts the abandoned parent: the journal must
        // be rolled back before the drop (evicting a dirty parent would
        // otherwise be the one path where trial state escapes).
        touch(&mut pool, 2).expect("boot 2");
        touch(&mut pool, 3).expect("boot 3 evicts 1");
        assert!(!pool.contains(&1));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn serving_a_parent_with_an_abandoned_journal_repairs_it_first() {
        let mut pool: KernelPool<u32> = KernelPool::new(2);
        let peek = |k: &mut Kernel| k.dram().peek(0, 64).expect("peek");
        let want = pool.run_journaled(&1, boot, peek).expect("boot");
        abandon_a_journal(&mut pool, 1, 64, 0xEE);

        // A trial served from the abandoned parent must see the clean
        // (rolled-back) machine, not the dead trial's bytes.
        let served = pool.run_journaled(&1, boot, peek).expect("serving repairs");
        assert_eq!(served, want);
        assert!(!pool.parents[&1].kernel.journal_active());
    }
}
