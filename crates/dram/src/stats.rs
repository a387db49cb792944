use std::fmt;

use cta_telemetry::{Group, RingLog, StatSource};

use crate::geometry::{RowId, MAX_ROWS, MAX_ROW_BYTES};
use crate::vuln::FlipDirection;

/// Bits in the widest row a module accepts: 2^31.
const MAX_ROW_BITS: u64 = MAX_ROW_BYTES * 8;

/// A single disturbance-induced bit flip, as recorded by the module.
///
/// Packed into 16 bytes: a CTA templating trial logs about 200k of these,
/// and the module's caps make the narrow fields lossless. A row index is
/// below [`MAX_ROWS`] (2^32), so it fits a `u32`; a bit index is below
/// `8 ×` [`MAX_ROW_BYTES`] (2^31), so it fits 31 bits, and the 32nd holds
/// the direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlipEvent {
    /// Simulated time of the flip in nanoseconds.
    time_ns: u64,
    /// Victim row.
    row: u32,
    /// `bit << 1 | direction`, with direction `0` for `1→0` and `1` for
    /// `0→1`.
    bit_dir: u32,
}

impl FlipEvent {
    /// Packs a flip of `bit` in `row`, in `direction`, at `time_ns`.
    ///
    /// # Panics
    ///
    /// If `row` is not below [`MAX_ROWS`] or `bit` not below
    /// `8 ×` [`MAX_ROW_BYTES`]: no module has such a row or bit.
    pub fn new(row: RowId, bit: u64, direction: FlipDirection, time_ns: u64) -> Self {
        assert!(row.0 < MAX_ROWS, "flip row {} is past the {MAX_ROWS}-row cap", row.0);
        assert!(bit < MAX_ROW_BITS, "flip bit {bit} is past the {MAX_ROW_BITS}-bit row cap");
        let dir = match direction {
            FlipDirection::OneToZero => 0,
            FlipDirection::ZeroToOne => 1,
        };
        FlipEvent { time_ns, row: row.0 as u32, bit_dir: (bit as u32) << 1 | dir }
    }

    /// Victim row.
    pub fn row(self) -> RowId {
        RowId(u64::from(self.row))
    }

    /// Bit index within the row.
    pub fn bit(self) -> u64 {
        u64::from(self.bit_dir >> 1)
    }

    /// Direction the value changed.
    pub fn direction(self) -> FlipDirection {
        if self.bit_dir & 1 == 0 {
            FlipDirection::OneToZero
        } else {
            FlipDirection::ZeroToOne
        }
    }

    /// Simulated time of the flip in nanoseconds.
    pub fn time_ns(self) -> u64 {
        self.time_ns
    }
}

/// The unpacked fields, so transcripts print as rows and bits.
impl fmt::Debug for FlipEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlipEvent")
            .field("row", &self.row())
            .field("bit", &self.bit())
            .field("direction", &self.direction())
            .field("time_ns", &self.time_ns())
            .finish()
    }
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
        match event.direction() {
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
    fn a_flip_event_stays_two_words() {
        // A templating trial's transcript holds about 200k events.
        assert_eq!(std::mem::size_of::<FlipEvent>(), 16);
    }

    #[test]
    fn flip_events_unpack_what_they_packed_at_the_caps() {
        for row in [0, MAX_ROWS - 1] {
            for bit in [0, MAX_ROW_BITS - 1] {
                for direction in [FlipDirection::OneToZero, FlipDirection::ZeroToOne] {
                    for time_ns in [0, u64::MAX] {
                        let e = FlipEvent::new(RowId(row), bit, direction, time_ns);
                        assert_eq!(e.row(), RowId(row));
                        assert_eq!(e.bit(), bit);
                        assert_eq!(e.direction(), direction);
                        assert_eq!(e.time_ns(), time_ns);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit row cap")]
    fn a_flip_bit_past_the_row_width_is_refused() {
        FlipEvent::new(RowId(0), MAX_ROW_BITS, FlipDirection::OneToZero, 0);
    }

    #[test]
    #[should_panic(expected = "-row cap")]
    fn a_flip_row_past_the_module_cap_is_refused() {
        FlipEvent::new(RowId(MAX_ROWS), 0, FlipDirection::OneToZero, 0);
    }

    #[test]
    fn debug_prints_the_unpacked_fields() {
        let e = FlipEvent::new(RowId(7), 130, FlipDirection::ZeroToOne, 5_905_720);
        assert_eq!(
            format!("{e:?}"),
            "FlipEvent { row: RowId(7), bit: 130, direction: ZeroToOne, time_ns: 5905720 }"
        );
    }

    #[test]
    fn record_flip_updates_both_counters_and_log() {
        let mut s = DramStats::default();
        s.record_flip(FlipEvent::new(RowId(1), 2, FlipDirection::OneToZero, 5));
        s.record_flip(FlipEvent::new(RowId(1), 3, FlipDirection::ZeroToOne, 6));
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
            s.record_flip(FlipEvent::new(
                RowId(i % 7),
                i,
                if i % 2 == 0 { FlipDirection::OneToZero } else { FlipDirection::ZeroToOne },
                i,
            ));
        }
        assert_eq!(s.flip_log.len(), 4);
        assert_eq!(s.flip_log.dropped(), 96);
        assert_eq!(s.total_flips(), s.flip_log.total_recorded());
        // The retained window is the most recent events.
        assert_eq!(s.flip_log.iter().map(|e| e.bit()).collect::<Vec<_>>(), vec![96, 97, 98, 99]);
    }

    #[test]
    fn stat_source_snapshot_matches_counters() {
        let mut s = DramStats { activations: 3, reads: 2, ..DramStats::default() };
        s.record_flip(FlipEvent::new(RowId(0), 0, FlipDirection::OneToZero, 1));
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
