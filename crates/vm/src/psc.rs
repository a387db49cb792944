//! Paging-structure caches (PSC): the MMU-internal caches of non-leaf
//! page-table entries that let a TLB miss resume its walk below CR3.
//!
//! x86 MMUs keep a PML4E cache, a PDPTE cache, and a PDE cache keyed by the
//! virtual-address prefix each level translates (bits 47:39, 47:30, 47:21).
//! On a TLB miss the hardware probes them deepest-first: a PDE-cache hit
//! costs one PTE read instead of a 4-level walk. We model exactly that,
//! keyed by `(pid, prefix)` since the simulator has no ASIDs.
//!
//! Invalidation follows the SDM: `invlpg` (our `flush_page`) drops the
//! paging-structure-cache entries covering the page alongside its TLB entry,
//! and a CR3 reload (`flush_all`) empties everything. The kernel routes
//! every PTE store through the same invalidation, so corruption experiments
//! that flush a page always re-walk live DRAM — a stale-but-flushed cache
//! can never serve an old frame.
//!
//! Only *non-leaf* entries are cached (a huge PD/PDPT leaf goes to the TLB,
//! never here), and each cached entry carries the cumulative AND of the
//! user/writable bits of every level walked to reach it, mirroring how
//! hardware folds upper-level permissions into the cached copy.

use std::fmt;

use cta_mem::PtLevel;
use cta_telemetry::{Group, StatSource};

use crate::addr::VirtAddr;
use crate::kernel::Pid;
use crate::setassoc::SetAssoc;

/// A cached non-leaf entry: where the next-level table lives plus the
/// cumulative permissions of every level summarized by the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PscEntry {
    /// Physical byte address of the next-level table.
    pub table: u64,
    /// Every summarized level granted writes.
    pub writable: bool,
    /// Every summarized level granted user access.
    pub user: bool,
}

/// PSC hit/miss/invalidation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PscStats {
    /// Lookups that hit some level (the walk resumed below CR3).
    pub hits: u64,
    /// Lookups that missed every level (full walk from CR3).
    pub misses: u64,
    /// Entries dropped by targeted invalidation (`invalidate_page`,
    /// `flush_pid`) — PTE stores and `invlpg` land here.
    pub invalidations: u64,
    /// Full clears (`flush_all`: CR3 reload).
    pub flushes: u64,
}

impl PscStats {
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

impl fmt::Display for PscStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} invalidations={} flushes={}",
            self.hits, self.misses, self.invalidations, self.flushes
        )
    }
}

impl StatSource for PscStats {
    fn group(&self) -> &'static str {
        "psc"
    }

    fn record(&self, g: &mut Group) {
        g.add_u64("hits", self.hits);
        g.add_u64("misses", self.misses);
        g.add_u64("invalidations", self.invalidations);
        g.add_u64("flushes", self.flushes);
    }
}

/// The three cached non-leaf levels, each with the right-shift producing its
/// va prefix and the level a hit at it resumes the walk at.
const LEVELS: [(PtLevel, u32, PtLevel); 3] = [
    (PtLevel::Pml4, 39, PtLevel::Pdpt),
    (PtLevel::Pdpt, 30, PtLevel::Pd),
    (PtLevel::Pd, 21, PtLevel::Pt),
];

fn level_slot(level: PtLevel) -> Option<usize> {
    match level {
        PtLevel::Pml4 => Some(0),
        PtLevel::Pdpt => Some(1),
        PtLevel::Pd => Some(2),
        PtLevel::Pt => None,
    }
}

/// Per-level paging-structure caches with a shared counter block.
///
/// Built with `entries_per_level == 0` the PSC is disabled: lookups miss
/// without counting and inserts are dropped, so a kernel configured that way
/// behaves exactly like one predating the cache.
#[derive(Debug)]
pub struct Psc {
    caches: Option<[SetAssoc<PscEntry>; 3]>,
    stats: PscStats,
}

cta_dram::clone_fields!(Psc { caches, stats });

impl Psc {
    /// Creates the three per-level caches, each holding at least
    /// `entries_per_level` entries; 0 disables the PSC entirely.
    pub fn new(entries_per_level: usize) -> Self {
        let caches = (entries_per_level > 0).then(|| {
            [
                SetAssoc::new(entries_per_level),
                SetAssoc::new(entries_per_level),
                SetAssoc::new(entries_per_level),
            ]
        });
        Psc { caches, stats: PscStats::default() }
    }

    /// Whether the PSC caches anything at all.
    pub fn enabled(&self) -> bool {
        self.caches.is_some()
    }

    /// Probes the caches deepest-first (PDE, then PDPTE, then PML4E) and
    /// returns the level the walk should resume at plus the cached entry.
    /// Counts one hit or miss per call; a disabled PSC counts nothing.
    pub fn lookup(&mut self, pid: Pid, va: VirtAddr) -> Option<(PtLevel, PscEntry)> {
        let caches = self.caches.as_mut()?;
        for (slot, &(_, shift, resume)) in LEVELS.iter().enumerate().rev() {
            if let Some(entry) = caches[slot].lookup(pid, va.0 >> shift) {
                self.stats.hits += 1;
                return Some((resume, entry));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Caches the non-leaf entry read at `level` during a successful walk of
    /// `va`. Leaf levels (PT, or huge PD/PDPT entries — the walker never
    /// reports those as intermediates) are ignored.
    pub fn insert(&mut self, pid: Pid, va: VirtAddr, level: PtLevel, entry: PscEntry) {
        let Some(caches) = self.caches.as_mut() else { return };
        let Some(slot) = level_slot(level) else { return };
        let shift = LEVELS[slot].1;
        caches[slot].insert(pid, va.0 >> shift, entry);
    }

    /// `invlpg` semantics: drops the cached entries of every level covering
    /// `va`, counting each entry actually removed.
    pub fn invalidate_page(&mut self, pid: Pid, va: VirtAddr) {
        let Some(caches) = self.caches.as_mut() else { return };
        for (slot, &(_, shift, _)) in LEVELS.iter().enumerate() {
            if caches[slot].remove(pid, va.0 >> shift) {
                self.stats.invalidations += 1;
            }
        }
    }

    /// Drops every entry of one process (context teardown).
    pub fn flush_pid(&mut self, pid: Pid) {
        let Some(caches) = self.caches.as_mut() else { return };
        for cache in caches.iter_mut() {
            self.stats.invalidations += cache.remove_pid(pid);
        }
    }

    /// CR3-reload semantics: empties every level.
    pub fn flush_all(&mut self) {
        let Some(caches) = self.caches.as_mut() else { return };
        for cache in caches.iter_mut() {
            cache.clear();
        }
        self.stats.flushes += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PscStats {
        self.stats
    }

    /// Total live entries across the three levels.
    pub fn len(&self) -> usize {
        self.caches.as_ref().map_or(0, |c| c.iter().map(SetAssoc::len).sum())
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(table: u64) -> PscEntry {
        PscEntry { table, writable: true, user: true }
    }

    /// A va plus entries for all three of its non-leaf levels.
    fn fill_all_levels(psc: &mut Psc, pid: Pid, va: VirtAddr) {
        psc.insert(pid, va, PtLevel::Pml4, entry(0x1000));
        psc.insert(pid, va, PtLevel::Pdpt, entry(0x2000));
        psc.insert(pid, va, PtLevel::Pd, entry(0x3000));
    }

    #[test]
    fn disabled_psc_is_inert() {
        let mut psc = Psc::new(0);
        assert!(!psc.enabled());
        psc.insert(Pid(1), VirtAddr(0), PtLevel::Pd, entry(0x3000));
        assert!(psc.lookup(Pid(1), VirtAddr(0)).is_none());
        psc.invalidate_page(Pid(1), VirtAddr(0));
        psc.flush_pid(Pid(1));
        psc.flush_all();
        assert_eq!(psc.stats(), PscStats::default(), "disabled PSC counts nothing");
        assert!(psc.is_empty());
    }

    #[test]
    fn lookup_prefers_the_deepest_cached_level() {
        let mut psc = Psc::new(16);
        let va = VirtAddr(0x4020_3000);
        fill_all_levels(&mut psc, Pid(1), va);
        let (resume, e) = psc.lookup(Pid(1), va).unwrap();
        assert_eq!(resume, PtLevel::Pt, "PDE hit resumes at the leaf level");
        assert_eq!(e.table, 0x3000);
        // Any va sharing the 2 MiB prefix hits the same PDE entry.
        let (resume, _) = psc.lookup(Pid(1), VirtAddr(0x403F_F000)).unwrap();
        assert_eq!(resume, PtLevel::Pt);
        assert_eq!(psc.stats().hits, 2);
    }

    #[test]
    fn shallower_levels_back_up_deeper_misses() {
        let mut psc = Psc::new(16);
        let va = VirtAddr(0x4020_3000);
        psc.insert(Pid(1), va, PtLevel::Pml4, entry(0x1000));
        // Different 2 MiB / 1 GiB prefix, same 512 GiB prefix: only the
        // PML4E cache can serve it.
        let sibling = VirtAddr(0x23_4567_8000);
        let (resume, e) = psc.lookup(Pid(1), sibling).unwrap();
        assert_eq!(resume, PtLevel::Pdpt, "PML4E hit resumes at PDPT");
        assert_eq!(e.table, 0x1000);
    }

    #[test]
    fn leaf_levels_are_never_cached() {
        let mut psc = Psc::new(16);
        psc.insert(Pid(1), VirtAddr(0), PtLevel::Pt, entry(0x9000));
        assert!(psc.is_empty());
        assert!(psc.lookup(Pid(1), VirtAddr(0)).is_none());
        assert_eq!(psc.stats().misses, 1);
    }

    #[test]
    fn invalidate_page_drops_every_covering_level() {
        let mut psc = Psc::new(16);
        let va = VirtAddr(0x4020_3000);
        fill_all_levels(&mut psc, Pid(1), va);
        assert_eq!(psc.len(), 3);
        psc.invalidate_page(Pid(1), va);
        assert!(psc.is_empty());
        assert_eq!(psc.stats().invalidations, 3);
        assert!(psc.lookup(Pid(1), va).is_none());
        // Re-invalidating an empty cache removes (and counts) nothing.
        psc.invalidate_page(Pid(1), va);
        assert_eq!(psc.stats().invalidations, 3);
    }

    #[test]
    fn invalidation_spares_unrelated_prefixes() {
        let mut psc = Psc::new(16);
        let a = VirtAddr(0x4020_0000);
        let b = VirtAddr(0x4040_0000); // same PDPT prefix, different PDE prefix
        psc.insert(Pid(1), a, PtLevel::Pd, entry(0x3000));
        psc.insert(Pid(1), b, PtLevel::Pd, entry(0x4000));
        psc.invalidate_page(Pid(1), a);
        assert!(psc.lookup(Pid(1), a).is_none());
        let (_, e) = psc.lookup(Pid(1), b).unwrap();
        assert_eq!(e.table, 0x4000);
    }

    #[test]
    fn flush_pid_isolates_processes() {
        let mut psc = Psc::new(16);
        fill_all_levels(&mut psc, Pid(1), VirtAddr(0x4020_3000));
        fill_all_levels(&mut psc, Pid(2), VirtAddr(0x4020_3000));
        psc.flush_pid(Pid(1));
        assert!(psc.lookup(Pid(1), VirtAddr(0x4020_3000)).is_none());
        assert!(psc.lookup(Pid(2), VirtAddr(0x4020_3000)).is_some());
        assert_eq!(psc.stats().invalidations, 3);
    }

    #[test]
    fn flush_all_counts_one_flush() {
        let mut psc = Psc::new(16);
        fill_all_levels(&mut psc, Pid(1), VirtAddr(0x4020_3000));
        psc.flush_all();
        assert!(psc.is_empty());
        assert_eq!(psc.stats().flushes, 1);
        assert_eq!(psc.stats().invalidations, 0, "full flushes are not invalidations");
    }

    #[test]
    fn hit_rate_and_stat_source() {
        let mut psc = Psc::new(16);
        let va = VirtAddr(0x4020_3000);
        psc.insert(Pid(1), va, PtLevel::Pd, entry(0x3000));
        psc.lookup(Pid(1), va);
        psc.lookup(Pid(1), VirtAddr(0x7700_0000_0000));
        assert!((psc.stats().hit_rate() - 0.5).abs() < 1e-12);
        let mut g = Group::default();
        psc.stats().record(&mut g);
        assert_eq!(g.get_u64("hits"), Some(1));
        assert_eq!(g.get_u64("misses"), Some(1));
        assert_eq!(psc.stats().group(), "psc");
    }
}
