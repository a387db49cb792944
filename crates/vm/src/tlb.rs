use std::fmt;

use cta_telemetry::{Group, StatSource};

use crate::addr::VirtAddr;
use crate::kernel::Pid;
use crate::setassoc::SetAssoc;

/// A cached translation: physical page base plus the permission summary the
/// walk established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Physical byte address of the page base.
    pub page_base: u64,
    /// The cached walk permitted writes.
    pub writable: bool,
    /// The cached walk permitted user access.
    pub user: bool,
}

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Full flushes (`flush_all`: CR3 reload / invlpg-everything).
    pub flushes: u64,
    /// Single-page invalidations (`flush_page`), counted per invocation —
    /// the paper's Algorithm 1 hammer loop issues one per probe read, so
    /// this is the counter attack telemetry cares about.
    pub page_flushes: u64,
    /// Per-process invalidations (`flush_pid`, context teardown).
    pub pid_flushes: u64,
}

impl TlbStats {
    /// Hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for TlbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} flushes={} page_flushes={} pid_flushes={}",
            self.hits, self.misses, self.flushes, self.page_flushes, self.pid_flushes
        )
    }
}

impl StatSource for TlbStats {
    fn group(&self) -> &'static str {
        "tlb"
    }

    fn record(&self, g: &mut Group) {
        g.add_u64("hits", self.hits);
        g.add_u64("misses", self.misses);
        g.add_u64("flushes", self.flushes);
        g.add_u64("page_flushes", self.page_flushes);
        g.add_u64("pid_flushes", self.pid_flushes);
    }
}

/// A fixed-size set-associative TLB keyed by `(pid, virtual page number)`,
/// vpn-indexed with tree pseudo-LRU replacement within each set.
///
/// Every operation is O(ways): `flush_page` in particular probes exactly one
/// set, so the paper's Algorithm 1 loop (one `invlpg` per probe read) never
/// pays an O(cache size) scan the way the earlier FIFO `HashMap` did.
///
/// RowHammer attacks must flush the TLB between hammer reads so every access
/// re-walks the (possibly corrupted) page tables — exactly the `va`-access +
/// TLB-flush loop of the paper's Algorithm 1 step (2).
#[derive(Debug)]
pub struct Tlb {
    cache: SetAssoc<TlbEntry>,
    stats: TlbStats,
}

cta_dram::clone_fields!(Tlb { cache, stats });

impl Tlb {
    /// Creates a TLB with at least `capacity` entries (rounded up to a
    /// power-of-two `sets × ways` geometry, at most 4 ways per set).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Tlb { cache: SetAssoc::new(capacity), stats: TlbStats::default() }
    }

    /// Looks up the translation of `va` for `pid`.
    pub fn lookup(&mut self, pid: Pid, va: VirtAddr) -> Option<TlbEntry> {
        match self.cache.lookup(pid, va.vpn()) {
            Some(e) => {
                self.stats.hits += 1;
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a translation, evicting the set's pseudo-LRU entry when the
    /// set is full.
    pub fn insert(&mut self, pid: Pid, va: VirtAddr, entry: TlbEntry) {
        self.cache.insert(pid, va.vpn(), entry);
    }

    /// Drops every cached translation (`invlpg`-everything / CR3 reload).
    pub fn flush_all(&mut self) {
        self.cache.clear();
        self.stats.flushes += 1;
    }

    /// Drops one page's translation. Counted per invocation (like the
    /// `invlpg` instruction), whether or not the page was cached.
    pub fn flush_page(&mut self, pid: Pid, va: VirtAddr) {
        self.stats.page_flushes += 1;
        self.cache.remove(pid, va.vpn());
    }

    /// Drops all translations of one process (context teardown).
    pub fn flush_pid(&mut self, pid: Pid) {
        self.stats.pid_flushes += 1;
        self.cache.remove_pid(pid);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(base: u64) -> TlbEntry {
        TlbEntry { page_base: base, writable: true, user: true }
    }

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert!(t.lookup(Pid(1), VirtAddr(0x1000)).is_none());
        t.insert(Pid(1), VirtAddr(0x1000), e(0x8000));
        assert_eq!(t.lookup(Pid(1), VirtAddr(0x1234)).unwrap().page_base, 0x8000);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn per_pid_isolation() {
        let mut t = Tlb::new(4);
        t.insert(Pid(1), VirtAddr(0x1000), e(0x8000));
        assert!(t.lookup(Pid(2), VirtAddr(0x1000)).is_none());
    }

    #[test]
    fn fifo_eviction() {
        let mut t = Tlb::new(2);
        t.insert(Pid(1), VirtAddr(0x1000), e(1));
        t.insert(Pid(1), VirtAddr(0x2000), e(2));
        t.insert(Pid(1), VirtAddr(0x3000), e(3));
        assert!(t.lookup(Pid(1), VirtAddr(0x1000)).is_none(), "oldest evicted");
        assert!(t.lookup(Pid(1), VirtAddr(0x3000)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut t = Tlb::new(2); // one 2-way set
        t.insert(Pid(1), VirtAddr(0x1000), e(1));
        t.insert(Pid(1), VirtAddr(0x2000), e(2));
        t.lookup(Pid(1), VirtAddr(0x1000)); // 0x1000 becomes MRU
        t.insert(Pid(1), VirtAddr(0x3000), e(3)); // evicts 0x2000, not 0x1000
        assert!(t.lookup(Pid(1), VirtAddr(0x1000)).is_some());
        assert!(t.lookup(Pid(1), VirtAddr(0x2000)).is_none());
    }

    #[test]
    fn eviction_is_per_set_not_global() {
        let mut t = Tlb::new(64); // 16 sets × 4 ways
                                  // Five pages that all land in set 0 (vpn ≡ 0 mod 16) fight over
                                  // that set's 4 ways; a page in set 1 is untouched.
        t.insert(Pid(1), VirtAddr(0x1000), e(99));
        for i in 0..5u64 {
            t.insert(Pid(1), VirtAddr(i * 16 * 0x1000), e(i));
        }
        assert_eq!(t.len(), 5, "4 survivors in set 0 plus the set-1 entry");
        assert!(t.lookup(Pid(1), VirtAddr(0x1000)).is_some());
    }

    #[test]
    fn flushes() {
        let mut t = Tlb::new(8);
        t.insert(Pid(1), VirtAddr(0x1000), e(1));
        t.insert(Pid(1), VirtAddr(0x2000), e(2));
        t.insert(Pid(2), VirtAddr(0x1000), e(3));
        t.flush_page(Pid(1), VirtAddr(0x1000));
        assert!(t.lookup(Pid(1), VirtAddr(0x1000)).is_none());
        t.flush_pid(Pid(1));
        assert!(t.lookup(Pid(1), VirtAddr(0x2000)).is_none());
        assert!(t.lookup(Pid(2), VirtAddr(0x1000)).is_some());
        t.flush_all();
        assert!(t.is_empty());
        assert_eq!(t.stats().flushes, 1);
        assert_eq!(t.stats().page_flushes, 1);
        assert_eq!(t.stats().pid_flushes, 1);
    }

    #[test]
    fn page_flush_counts_invocations_even_when_uncached() {
        let mut t = Tlb::new(4);
        t.flush_page(Pid(1), VirtAddr(0x1000));
        t.flush_page(Pid(1), VirtAddr(0x1000));
        assert_eq!(t.stats().page_flushes, 2);
        assert_eq!(t.stats().flushes, 0, "full-flush counter untouched");
    }

    #[test]
    fn flush_page_leaves_no_stale_entries() {
        // Regression test for the O(n) `order.retain` era: per-page flushes
        // must actually drop the entry (no stale survivors), at O(ways) cost.
        let mut t = Tlb::new(64);
        let vas: Vec<VirtAddr> = (0..256).map(|i| VirtAddr(i * 0x1000)).collect();
        for va in &vas {
            t.insert(Pid(1), *va, e(va.0));
        }
        for va in &vas {
            t.flush_page(Pid(1), *va);
        }
        assert_eq!(t.len(), 0, "no stale entries survive per-page flushes");
        assert!(t.is_empty());
        let misses_before = t.stats().misses;
        for va in &vas {
            assert!(t.lookup(Pid(1), *va).is_none());
        }
        assert_eq!(t.stats().misses, misses_before + 256);
    }

    #[test]
    fn reinsert_same_key_does_not_grow() {
        let mut t = Tlb::new(2);
        t.insert(Pid(1), VirtAddr(0x1000), e(1));
        t.insert(Pid(1), VirtAddr(0x1000), e(9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Pid(1), VirtAddr(0x1000)).unwrap().page_base, 9);
    }

    #[test]
    fn hit_rate() {
        let mut t = Tlb::new(2);
        assert_eq!(t.stats().hit_rate(), 0.0);
        t.insert(Pid(1), VirtAddr(0), e(1));
        t.lookup(Pid(1), VirtAddr(0));
        t.lookup(Pid(1), VirtAddr(0x100000));
        assert!((t.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
