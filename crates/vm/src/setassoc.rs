//! A small generic set-associative cache with tree pseudo-LRU replacement.
//!
//! Shared by the TLB and the paging-structure caches: both are fixed-size
//! hardware-style arrays keyed by `(pid, address-derived key)` where every
//! operation — lookup, fill, single-entry invalidation, and flush-all —
//! must be cheap. Lookup/insert/remove are O(ways); `clear` is O(1) via
//! epoch tagging (slots from an older epoch are dead), which matters
//! because attack loops call `flush_tlb` before every probe and must not
//! pay an O(cache size) sweep each time. The set index is the low key
//! bits, so sequential pages (or table prefixes) spread across sets like a
//! hardware TLB.

use crate::kernel::Pid;

#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    pid: Pid,
    key: u64,
    epoch: u64,
    value: V,
}

/// `sets × ways` array of tagged slots with one tree-PLRU bit vector per set.
#[derive(Debug)]
pub(crate) struct SetAssoc<V> {
    sets: usize,
    ways: usize,
    epoch: u64,
    slots: Vec<Option<Slot<V>>>,
    plru: Vec<u16>,
    len: usize,
}

cta_dram::clone_fields!(SetAssoc<V> { sets, ways, epoch, slots, plru, len });

impl<V: Copy> SetAssoc<V> {
    /// Builds a cache of at least `capacity` entries: `ways` is
    /// `min(4, capacity)` rounded to a power of two and the set count is the
    /// next power of two covering the rest, so `capacity` is rounded up to
    /// the nearest `sets × ways` geometry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        let ways = capacity.next_power_of_two().min(4);
        let sets = capacity.div_ceil(ways).next_power_of_two();
        SetAssoc {
            sets,
            ways,
            epoch: 0,
            slots: vec![None; sets * ways],
            plru: vec![0; sets],
            len: 0,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn set_of(&self, key: u64) -> usize {
        (key as usize) & (self.sets - 1)
    }

    fn slot_index(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The slot at `(set, way)` if it holds a current-epoch entry.
    fn live(&self, set: usize, way: usize) -> Option<&Slot<V>> {
        self.slots[self.slot_index(set, way)].as_ref().filter(|s| s.epoch == self.epoch)
    }

    /// Marks `way` most-recently-used: every tree node on the root-to-leaf
    /// path is pointed *away* from it (a set bit sends the victim search
    /// right, a clear bit left).
    fn touch(&mut self, set: usize, way: usize) {
        let (mut lo, mut hi, mut node) = (0usize, self.ways, 0usize);
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            if way >= mid {
                self.plru[set] &= !(1 << node);
                lo = mid;
                node = 2 * node + 2;
            } else {
                self.plru[set] |= 1 << node;
                hi = mid;
                node = 2 * node + 1;
            }
        }
    }

    /// The pseudo-LRU victim way of `set`.
    fn victim(&self, set: usize) -> usize {
        let (mut lo, mut hi, mut node) = (0usize, self.ways, 0usize);
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            if self.plru[set] >> node & 1 == 1 {
                lo = mid;
                node = 2 * node + 2;
            } else {
                hi = mid;
                node = 2 * node + 1;
            }
        }
        lo
    }

    /// Returns the cached value and refreshes its recency.
    pub(crate) fn lookup(&mut self, pid: Pid, key: u64) -> Option<V> {
        if self.len == 0 {
            // Fast miss: right after a flush every probe would scan a set
            // of dead slots — the common state of attack-driven
            // flush-walk-flush loops.
            return None;
        }
        let set = self.set_of(key);
        for way in 0..self.ways {
            if let Some(s) = self.live(set, way) {
                if s.pid == pid && s.key == key {
                    let v = s.value;
                    self.touch(set, way);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Inserts (or overwrites) an entry; a full set evicts its pseudo-LRU
    /// way, never touching other sets. Dead slots (empty, or left over from
    /// before the last `clear`) are filled before anything is evicted.
    pub(crate) fn insert(&mut self, pid: Pid, key: u64, value: V) {
        let set = self.set_of(key);
        let mut target = None;
        for way in 0..self.ways {
            match self.live(set, way) {
                Some(s) if s.pid == pid && s.key == key => {
                    target = Some(way);
                    break;
                }
                None if target.is_none() => target = Some(way),
                _ => {}
            }
        }
        let way = target.unwrap_or_else(|| self.victim(set));
        let idx = self.slot_index(set, way);
        if self.live(set, way).is_none() {
            self.len += 1;
        }
        self.slots[idx] = Some(Slot { pid, key, epoch: self.epoch, value });
        self.touch(set, way);
    }

    /// Drops one entry in O(ways). Returns whether it was present.
    pub(crate) fn remove(&mut self, pid: Pid, key: u64) -> bool {
        let set = self.set_of(key);
        for way in 0..self.ways {
            if matches!(self.live(set, way), Some(s) if s.pid == pid && s.key == key) {
                self.slots[set * self.ways + way] = None;
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Drops every entry of `pid`. Returns how many were dropped.
    pub(crate) fn remove_pid(&mut self, pid: Pid) -> u64 {
        let epoch = self.epoch;
        let mut dropped = 0u64;
        for slot in &mut self.slots {
            if matches!(slot, Some(s) if s.epoch == epoch && s.pid == pid) {
                *slot = None;
                dropped += 1;
            }
        }
        self.len -= dropped as usize;
        dropped
    }

    /// Drops everything in O(1): entries written before the epoch bump are
    /// dead to every other operation and get reused as empty slots.
    pub(crate) fn clear(&mut self) {
        self.epoch += 1;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rounds_capacity_up() {
        let c: SetAssoc<u64> = SetAssoc::new(64);
        assert_eq!((c.sets, c.ways), (16, 4));
        let c: SetAssoc<u64> = SetAssoc::new(2);
        assert_eq!((c.sets, c.ways), (1, 2));
        let c: SetAssoc<u64> = SetAssoc::new(1);
        assert_eq!((c.sets, c.ways), (1, 1));
        let c: SetAssoc<u64> = SetAssoc::new(5);
        assert_eq!((c.sets, c.ways), (2, 4));
    }

    #[test]
    fn plru_victimizes_least_recently_touched_of_a_full_set() {
        let mut c: SetAssoc<u64> = SetAssoc::new(4); // 1 set × 4 ways
        for k in 0..4u64 {
            c.insert(Pid(1), k * 16, k); // same set (sets == 1)
        }
        // Refresh everything except key 16; it becomes the PLRU victim.
        c.lookup(Pid(1), 0);
        c.lookup(Pid(1), 32);
        c.lookup(Pid(1), 48);
        c.insert(Pid(1), 64, 9);
        assert!(c.lookup(Pid(1), 16).is_none(), "PLRU victim evicted");
        assert_eq!(c.lookup(Pid(1), 64), Some(9));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn remove_and_reinsert_reuse_the_slot() {
        let mut c: SetAssoc<u64> = SetAssoc::new(4);
        c.insert(Pid(1), 7, 1);
        assert!(c.remove(Pid(1), 7));
        assert!(!c.remove(Pid(1), 7));
        assert_eq!(c.len(), 0);
        c.insert(Pid(1), 7, 2);
        assert_eq!(c.lookup(Pid(1), 7), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_pid_spares_other_pids() {
        let mut c: SetAssoc<u64> = SetAssoc::new(8);
        c.insert(Pid(1), 1, 1);
        c.insert(Pid(1), 2, 2);
        c.insert(Pid(2), 1, 3);
        assert_eq!(c.remove_pid(Pid(1)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(Pid(2), 1), Some(3));
    }

    #[test]
    fn clear_is_an_epoch_bump_that_hides_every_old_entry() {
        let mut c: SetAssoc<u64> = SetAssoc::new(4);
        for k in 0..4u64 {
            c.insert(Pid(1), k * 16, k);
        }
        c.clear();
        assert_eq!(c.len(), 0);
        for k in 0..4u64 {
            assert!(c.lookup(Pid(1), k * 16).is_none(), "entry {k} survived clear");
            assert!(!c.remove(Pid(1), k * 16), "remove found a dead entry");
        }
        assert_eq!(c.remove_pid(Pid(1)), 0, "remove_pid counted dead entries");
        // Dead slots are reused as empty: refilling after clear keeps len
        // exact and the old values never resurface.
        c.insert(Pid(1), 0, 99);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(Pid(1), 0), Some(99));
    }
}
