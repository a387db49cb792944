use std::fmt;

use cta_telemetry::{Group, RingLog, StatSource};

use crate::geometry::RowId;
use crate::vuln::FlipDirection;

/// A single disturbance-induced bit flip, as recorded by the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlipEvent {
    /// Victim row.
    pub row: RowId,
    /// Bit index within the row.
    pub bit: u64,
    /// Direction the value changed.
    pub direction: FlipDirection,
    /// Simulated time of the flip in nanoseconds.
    pub time_ns: u64,
}

/// A drained flip log: the retained events plus the exact number of older
/// events the bounded ring evicted before the drain.
///
/// Returned by [`DramModule::take_flip_log`](crate::DramModule::take_flip_log)
/// so callers cannot mistake a truncated transcript for a complete one:
/// `events` is the full history **iff** `dropped == 0`. Record/replay code
/// must check [`FlipLog::is_complete`] and fail loudly on a lossy log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlipLog {
    /// Retained flip events, oldest first.
    pub events: Vec<FlipEvent>,
    /// Events evicted by the bounded ring before this drain (0 ⇒ `events`
    /// is the complete history since the last reset).
    pub dropped: u64,
}

impl FlipLog {
    /// True when no events were evicted: `events` is the full transcript.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded: retained plus dropped.
    pub fn total_recorded(&self) -> u64 {
        self.dropped + self.events.len() as u64
    }

    /// Iterates over retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlipEvent> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a FlipLog {
    type Item = &'a FlipEvent;
    type IntoIter = std::slice::Iter<'a, FlipEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Running counters and the flip log of a [`DramModule`](crate::DramModule).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Row activations performed (row-buffer misses).
    pub activations: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Refresh windows completed while refresh was enabled.
    pub refresh_windows: u64,
    /// Disturbance episodes applied to victim rows.
    pub disturbances: u64,
    /// Bits flipped `1→0` by disturbance.
    pub flips_one_to_zero: u64,
    /// Bits flipped `0→1` by disturbance.
    pub flips_zero_to_one: u64,
    /// Bits whose logic value changed through retention decay.
    pub decay_flips: u64,
    /// Rows evicted from the bounded vulnerability-map cache. Non-zero
    /// means a sweep touched more rows than the cache capacity and some
    /// maps were regenerated from seed.
    pub vuln_cache_evictions: u64,
    /// Long-cell lists evicted from the bounded retention-model cache.
    pub retention_cache_evictions: u64,
    /// Payload bytes retained in the vulnerability-map cache, each row
    /// weighed as its sorted `VulnerableBit` list (16 B per vulnerable
    /// cell) rather than as the bitplanes that store it, so the gauge
    /// measures model content only.
    pub vuln_cache_bytes: u64,
    /// Payload bytes retained in the retention model's long-cell cache
    /// (16 B per long-retention cell of every held row).
    pub retention_cache_bytes: u64,
    /// Bounded log of the most recent disturbance flips, in order of
    /// occurrence. Older events beyond the capacity are evicted but counted
    /// (`flip_log.dropped()`), so `total_flips()` always equals
    /// `flip_log.total_recorded()` between log resets.
    pub flip_log: RingLog<FlipEvent>,
}

impl DramStats {
    /// Total disturbance flips in both directions.
    pub fn total_flips(&self) -> u64 {
        self.flips_one_to_zero + self.flips_zero_to_one
    }

    /// Records a flip in the counters and the log.
    #[cfg(test)]
    pub(crate) fn record_flip(&mut self, event: FlipEvent) {
        match event.direction {
            FlipDirection::OneToZero => self.flips_one_to_zero += 1,
            FlipDirection::ZeroToOne => self.flips_zero_to_one += 1,
        }
        self.flip_log.push(event);
    }
}

impl StatSource for DramStats {
    fn group(&self) -> &'static str {
        "dram"
    }

    fn record(&self, g: &mut Group) {
        g.add_u64("activations", self.activations);
        g.add_u64("reads", self.reads);
        g.add_u64("writes", self.writes);
        g.add_u64("refresh_windows", self.refresh_windows);
        g.add_u64("disturbances", self.disturbances);
        g.add_u64("flips_one_to_zero", self.flips_one_to_zero);
        g.add_u64("flips_zero_to_one", self.flips_zero_to_one);
        g.add_u64("decay_flips", self.decay_flips);
        g.add_u64("vuln_cache_evictions", self.vuln_cache_evictions);
        g.add_u64("retention_cache_evictions", self.retention_cache_evictions);
        g.add_u64("vuln_cache_bytes", self.vuln_cache_bytes);
        g.add_u64("retention_cache_bytes", self.retention_cache_bytes);
        g.add_u64("flip_log_retained", self.flip_log.len() as u64);
        g.add_u64("flip_log_dropped", self.flip_log.dropped());
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "activations={} reads={} writes={} refreshes={} disturbances={} flips(1→0)={} flips(0→1)={} decay={}",
            self.activations,
            self.reads,
            self.writes,
            self.refresh_windows,
            self.disturbances,
            self.flips_one_to_zero,
            self.flips_zero_to_one,
            self.decay_flips,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_flip_updates_both_counters_and_log() {
        let mut s = DramStats::default();
        s.record_flip(FlipEvent {
            row: RowId(1),
            bit: 2,
            direction: FlipDirection::OneToZero,
            time_ns: 5,
        });
        s.record_flip(FlipEvent {
            row: RowId(1),
            bit: 3,
            direction: FlipDirection::ZeroToOne,
            time_ns: 6,
        });
        assert_eq!(s.flips_one_to_zero, 1);
        assert_eq!(s.flips_zero_to_one, 1);
        assert_eq!(s.total_flips(), 2);
        assert_eq!(s.flip_log.len(), 2);
    }

    #[test]
    fn flip_log_is_bounded_with_exact_totals() {
        let mut s = DramStats::default();
        s.flip_log.set_capacity(4);
        for i in 0..100 {
            s.record_flip(FlipEvent {
                row: RowId(i % 7),
                bit: i,
                direction: if i % 2 == 0 {
                    FlipDirection::OneToZero
                } else {
                    FlipDirection::ZeroToOne
                },
                time_ns: i,
            });
        }
        assert_eq!(s.flip_log.len(), 4);
        assert_eq!(s.flip_log.dropped(), 96);
        assert_eq!(s.total_flips(), s.flip_log.total_recorded());
        // The retained window is the most recent events.
        assert_eq!(s.flip_log.iter().map(|e| e.bit).collect::<Vec<_>>(), vec![96, 97, 98, 99]);
    }

    #[test]
    fn stat_source_snapshot_matches_counters() {
        let mut s = DramStats { activations: 3, reads: 2, ..DramStats::default() };
        s.record_flip(FlipEvent {
            row: RowId(0),
            bit: 0,
            direction: FlipDirection::OneToZero,
            time_ns: 1,
        });
        let mut c = cta_telemetry::Counters::new("t");
        c.record(&s);
        let g = c.group("dram").unwrap();
        assert_eq!(g.get_u64("activations"), Some(3));
        assert_eq!(g.get_u64("flips_one_to_zero"), Some(1));
        assert_eq!(g.get_u64("flip_log_retained"), Some(1));
        assert_eq!(g.get_u64("flip_log_dropped"), Some(0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!DramStats::default().to_string().is_empty());
    }
}
