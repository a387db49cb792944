//! Bounded ring-buffer event log with an exact drop counter.

use std::collections::VecDeque;

/// Default retained-event capacity for a [`RingLog`].
///
/// Large enough to hold every flip of a typical single-experiment run,
/// small enough that multi-seed campaigns stay memory-stable.
pub const DEFAULT_LOG_CAPACITY: usize = 4096;

/// A bounded event log: retains the most recent `capacity` events and
/// counts (exactly) how many older events were dropped to make room.
///
/// The key invariant is that `total_recorded() == len() + dropped()`, so
/// consumers that only need aggregate totals lose nothing when the window
/// wraps; consumers that inspect individual events see the most recent
/// `capacity` of them. A capacity of zero disables retention entirely
/// (every push is counted as dropped), which keeps hot paths allocation-free
/// when event detail is not needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingLog<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Default for RingLog<T> {
    fn default() -> Self {
        RingLog::new(DEFAULT_LOG_CAPACITY)
    }
}

impl<T> RingLog<T> {
    /// Creates an empty log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        // Bound the eager allocation: `with_capacity` on a huge cap would
        // defeat the point of a memory-stable log.
        let pre = capacity.min(DEFAULT_LOG_CAPACITY);
        RingLog { buf: VecDeque::with_capacity(pre), capacity, dropped: 0 }
    }

    /// Appends an event, evicting the oldest retained event (and counting
    /// it as dropped) if the log is full.
    pub fn push(&mut self, event: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events evicted (or rejected, for capacity zero) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total number of events ever pushed: retained plus dropped.
    pub fn total_recorded(&self) -> u64 {
        self.dropped + self.buf.len() as u64
    }

    /// Iterates over retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Changes the retention capacity in place. Shrinking evicts the oldest
    /// retained events and counts them as dropped.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.buf.len() > capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
    }

    /// Removes and returns all retained events (oldest first) **and** the
    /// number of events that were dropped before this drain, leaving a
    /// fresh log with the same capacity.
    ///
    /// The drop count is part of the return value on purpose: a caller that
    /// treats the drained `Vec` as "the complete event history" is wrong
    /// whenever the window wrapped, and an earlier version of this method
    /// silently reset the counter — making a truncated log indistinguishable
    /// from a complete one. Callers that genuinely only want the retained
    /// window can ignore the count explicitly; record/replay callers must
    /// fail loudly when it is non-zero. The buffer is handed over, not
    /// copied (a wrapped ring is rotated in place, so still oldest first).
    pub fn drain_to_vec(&mut self) -> (Vec<T>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        (Vec::from(std::mem::take(&mut self.buf)), dropped)
    }
}

impl<'a, T> IntoIterator for &'a RingLog<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_most_recent_and_counts_drops() {
        let mut log = RingLog::new(3);
        for i in 0..10u32 {
            log.push(i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.total_recorded(), 10);
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut log = RingLog::new(0);
        for i in 0..5u32 {
            log.push(i);
        }
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 5);
        assert_eq!(log.total_recorded(), 5);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut log = RingLog::new(8);
        for i in 0..6u32 {
            log.push(i);
        }
        log.set_capacity(2);
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(log.dropped(), 4);
        assert_eq!(log.total_recorded(), 6);
    }

    #[test]
    fn drain_resets_log_and_reports_drops() {
        let mut log = RingLog::new(2);
        for i in 0..5u32 {
            log.push(i);
        }
        let (events, dropped) = log.drain_to_vec();
        assert_eq!(events, vec![3, 4]);
        assert_eq!(dropped, 3, "the drain must surface the loss, not swallow it");
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.capacity(), 2);
    }

    #[test]
    fn drain_of_a_wrapped_ring_is_oldest_first_and_reusable() {
        let mut log = RingLog::new(5);
        for i in 0..13u32 {
            log.push(i);
        }
        assert_eq!(log.drain_to_vec(), ((8..13).collect(), 8));
        for i in 0..7u32 {
            log.push(i);
        }
        assert_eq!(log.drain_to_vec(), ((2..7).collect(), 2));
    }

    #[test]
    fn lossless_drain_reports_zero_drops() {
        let mut log = RingLog::new(8);
        for i in 0..5u32 {
            log.push(i);
        }
        let (events, dropped) = log.drain_to_vec();
        assert_eq!(events, vec![0, 1, 2, 3, 4]);
        assert_eq!(dropped, 0);
        // A second drain of the now-empty log is also lossless.
        assert_eq!(log.drain_to_vec(), (vec![], 0));
    }

    #[test]
    fn under_capacity_behaves_like_a_vec() {
        let mut log = RingLog::new(100);
        log.push("a");
        log.push("b");
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec!["a", "b"]);
    }
}
