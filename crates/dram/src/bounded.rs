//! Capacity-bounded memoization for the per-row model caches.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// A bounded memoization cache keyed by row, with FIFO eviction: both
/// halves of a [`RowMapCache`], its accounting and its shared store.
///
/// The per-row caches in [`crate::VulnerabilityModel`] and the retention
/// model used to be unbounded `HashMap`s, so a templating sweep over a large
/// module grew memory linearly with every row ever touched — the same
/// failure mode the flip log had before it became a `RingLog`. This cache
/// holds at most `capacity` entries and evicts in insertion order.
///
/// Eviction is FIFO rather than LRU on purpose: lookups never reorder
/// entries, so which rows get recomputed is a deterministic function of the
/// insertion history alone, independent of read patterns. The eviction
/// history is observable (it feeds the `*_cache_evictions` counters), so a
/// policy that depended on reads would make telemetry depend on them too.
///
/// Entries carry a caller-declared payload weight in bytes
/// ([`Self::insert_weighted`]). The running total feeds the `*_cache_bytes`
/// telemetry gauges; it is purely observational, and the entry-count
/// capacity is the only bound.
#[derive(Debug, Clone)]
struct BoundedCache<V> {
    capacity: usize,
    map: HashMap<u64, (V, usize)>,
    order: VecDeque<u64>,
    evictions: u64,
    /// Sum of the payload weights of retained entries.
    bytes: usize,
}

impl<V> BoundedCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// The tables start empty and grow on demand: every fork and journal
    /// snapshot of a module copies its accounting's tables whole, so a
    /// reservation the rows do not fill would cost every copy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a cache that can hold nothing would
    /// silently disable memoization.
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BoundedCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
            bytes: 0,
        }
    }

    /// Looks up `key` without affecting the eviction order.
    fn get(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|(v, _)| v)
    }

    /// Looks up `key` and its payload weight without affecting the
    /// eviction order.
    fn get_weighted(&self, key: u64) -> Option<(&V, usize)> {
        self.map.get(&key).map(|(v, w)| (v, *w))
    }

    /// Inserts `key → value` with zero payload weight (see
    /// [`Self::insert_weighted`]), evicting the oldest entry at capacity.
    /// Re-inserting an existing key replaces the value in place.
    #[cfg(test)]
    fn insert(&mut self, key: u64, value: V) {
        self.insert_weighted(key, value, 0);
    }

    /// Inserts `key → value` whose payload weighs `weight` bytes, evicting
    /// the oldest entry at capacity. Re-inserting an existing key replaces
    /// the value (and weight) in place without touching its FIFO position.
    fn insert_weighted(&mut self, key: u64, value: V, weight: usize) {
        if let Some((_, old)) = self.map.insert(key, (value, weight)) {
            self.bytes = self.bytes - old + weight;
        } else {
            if self.order.len() == self.capacity {
                self.evict_oldest();
            }
            self.order.push_back(key);
            self.bytes += weight;
        }
    }

    fn evict_oldest(&mut self) {
        let oldest = self.order.pop_front().expect("cache not empty");
        if let Some((_, w)) = self.map.remove(&oldest) {
            self.bytes -= w;
        }
        self.evictions += 1;
    }

    /// Number of entries currently retained.
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Total entries evicted since creation.
    fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sum of the payload weights (bytes) of retained entries.
    fn bytes(&self) -> usize {
        self.bytes
    }

    /// Changes the capacity, evicting oldest entries if shrinking.
    fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "cache capacity must be positive");
        self.capacity = capacity;
        while self.order.len() > capacity {
            self.evict_oldest();
        }
    }
}

/// A per-row map cache split into observable accounting and shared values.
///
/// A row's map is a pure function of the model's fixed inputs and the row,
/// so *which* rows a module holds — their weights, FIFO order, evictions
/// and bytes, all mirrored into telemetry — is the only part of a cache a
/// trial can observe. That accounting (`held`) is owned by the module:
/// forked with it and snapshotted by its undo journal, exactly like the
/// rest of the module's state.
///
/// The maps themselves live in a row → map store shared by a module, its
/// forks and its journal snapshots. Rollback and fork teardown never
/// discard it, so a trial served from a pooled parent reuses every map an
/// earlier trial built instead of regenerating it. The store is bounded by
/// the same row capacity as the accounting; a row the accounting holds but
/// the store has evicted is rebuilt on demand.
#[derive(Debug, Clone)]
pub(crate) struct RowMapCache<T> {
    held: BoundedCache<()>,
    maps: Rc<RefCell<BoundedCache<Rc<[T]>>>>,
}

impl<T> RowMapCache<T> {
    /// Creates an empty cache (and store) bounded to `capacity` rows.
    pub(crate) fn new(capacity: usize) -> Self {
        RowMapCache {
            held: BoundedCache::new(capacity),
            maps: Rc::new(RefCell::new(BoundedCache::new(capacity))),
        }
    }

    /// The stored map of `row`, if any, which the accounting then holds.
    pub(crate) fn get(&mut self, row: u64) -> Option<Rc<[T]>> {
        let (map, weight) =
            self.maps.borrow().get_weighted(row).map(|(map, w)| (Rc::clone(map), w))?;
        self.hold(row, weight);
        Some(map)
    }

    /// Stores the freshly built map of `row`, whose payload the caller
    /// weighs at `weight` bytes in both the store and the accounting, and
    /// holds it. Re-inserting a held row replaces its weight in place, as
    /// a private memo cache would.
    pub(crate) fn insert(&mut self, row: u64, map: Rc<[T]>, weight: usize) {
        self.held.insert_weighted(row, (), weight);
        self.maps.borrow_mut().insert_weighted(row, map, weight);
    }

    /// Whether the accounting holds `row`: whether a private memo cache
    /// would have found it.
    fn holds(&self, row: u64) -> bool {
        self.held.get(row).is_some()
    }

    /// Accounts `row` as held, exactly as a private memo cache would have
    /// on its first lookup of the row.
    fn hold(&mut self, row: u64, weight: usize) {
        if !self.holds(row) {
            self.held.insert_weighted(row, (), weight);
        }
    }

    /// Rows held (the larger of the accounting and the store).
    pub(crate) fn len(&self) -> usize {
        self.held.len().max(self.maps.borrow().len())
    }

    /// Rows the accounting evicted since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.held.evictions()
    }

    /// Payload bytes the accounting holds.
    pub(crate) fn held_bytes(&self) -> usize {
        self.held.bytes()
    }

    /// Payload bytes the shared store retains.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.maps.borrow().bytes()
    }

    /// Rebounds the accounting and the store to `capacity` rows.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.held.set_capacity(capacity);
        self.maps.borrow_mut().set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_at_capacity_with_fifo_eviction() {
        let mut c = BoundedCache::new(3);
        for k in 0u64..10 {
            c.insert(k, k * 2);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 7);
        // Oldest evicted first: 7, 8, 9 survive.
        assert_eq!(c.get(6), None);
        assert_eq!(c.get(7), Some(&14));
        assert_eq!(c.get(9), Some(&18));
    }

    #[test]
    fn lookups_do_not_reorder() {
        let mut c = BoundedCache::new(2);
        c.insert(1u64, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some(&"a")); // would save 1 under LRU
        c.insert(3, "c");
        assert_eq!(c.get(1), None, "FIFO evicts by insertion order only");
        assert_eq!(c.get(2), Some(&"b"));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c = BoundedCache::new(2);
        c.insert(1u64, "a");
        c.insert(2, "b");
        c.insert(1, "a2");
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(1), Some(&"a2"));
    }

    #[test]
    fn shrinking_evicts_oldest() {
        let mut c = BoundedCache::new(4);
        for k in 0u64..4 {
            c.insert(k, k);
        }
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.get(0), None);
        assert_eq!(c.get(3), Some(&3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedCache::<()>::new(0);
    }

    #[test]
    fn row_maps_are_shared_but_accounting_is_not() {
        let mut parent = RowMapCache::<u64>::new(4);
        parent.insert(1, Rc::from([10u64, 11]), 16);
        let snapshot = parent.clone();
        let mut child = parent.clone();
        child.insert(2, Rc::from([20u64]), 8);
        // The child's map reaches the parent's store ...
        assert_eq!(parent.get(2).as_deref(), Some(&[20u64][..]));
        // ... while each side accounts only the rows it looked up.
        assert_eq!(snapshot.held_bytes(), 16);
        assert_eq!(child.held_bytes(), 24);
        assert_eq!(parent.held_bytes(), 24, "the parent's get held row 2");
        assert_eq!(snapshot.stored_bytes(), 24);
    }

    #[test]
    fn held_rows_survive_store_eviction_and_accounting_matches_a_plain_cache() {
        let mut shared = RowMapCache::<u64>::new(2);
        let mut other = shared.clone();
        let mut plain = BoundedCache::<()>::new(2);
        for row in 0..6u64 {
            // A second holder churns the store without touching `shared`'s
            // accounting.
            other.insert(100 + row, Rc::from([row]), 8);
            if shared.get(row).is_none() {
                shared.insert(row, Rc::from([row, row]), 16);
            }
            if plain.get(row).is_none() {
                plain.insert_weighted(row, (), 16);
            }
        }
        assert_eq!(shared.evictions(), plain.evictions());
        assert_eq!(shared.held_bytes(), plain.bytes());
        assert!(shared.len() <= 2);
    }
}
