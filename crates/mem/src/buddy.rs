use crate::error::AllocError;
use crate::frame::{frame_table, reserved, Pfn};

/// Largest block order plus one, as in Linux (`MAX_ORDER = 11` ⇒ blocks of
/// up to 2¹⁰ = 1024 pages = 4 MiB).
pub const MAX_ORDER: u8 = 11;

const ORDERS: usize = MAX_ORDER as usize;

/// Per-frame order byte of a frame that starts no allocated block.
const NOT_ALLOCATED: u8 = u8::MAX;

/// A binary buddy allocator over a contiguous frame range.
///
/// This is the classic Linux per-zone buddy system: free blocks of order
/// `k` cover `2^k` naturally aligned frames; freeing coalesces a block with
/// its buddy (`pfn ^ 2^k`) whenever the buddy is also free, restoring
/// maximal blocks. Allocation is lowest-address-first and deterministic.
///
/// The bookkeeping is flat, sized once at construction: one bitmap of free
/// block heads per order (a bit per naturally aligned `2^k`-frame slot that
/// overlaps the range) and one order byte per frame, set on the first frame
/// of each allocated block. Each bitmap keeps its count of set bits and
/// the index of its lowest non-zero word exact, so the lowest free block
/// is found without a scan and two allocators in the same state compare
/// equal field by field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuddyAllocator {
    start: u64,
    end: u64,
    /// Every order's bitmap: order `k` owns `words[spans[k]..spans[k + 1]]`,
    /// bit `i` of it standing for the block at `((start >> k) + i) << k`.
    words: Vec<u64>,
    spans: [usize; ORDERS + 1],
    /// Free blocks of each order.
    counts: [u64; ORDERS],
    /// Lowest non-zero word of each order's bitmap, `spans[k + 1]` when the
    /// order has no free block.
    lowest: [usize; ORDERS],
    /// Order of the allocated block each frame starts, indexed by
    /// `pfn - start`; [`NOT_ALLOCATED`] elsewhere.
    orders: Vec<u8>,
    allocated: usize,
    free_pages: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over frames `[start, end)`, all initially free.
    ///
    /// The range need not be aligned; it is greedily covered with maximal
    /// naturally aligned blocks.
    ///
    /// # Errors
    ///
    /// [`AllocError::FrameTableTooLarge`] if the bitmaps or the per-frame
    /// order bytes do not fit in host memory.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` — an empty zone is a configuration bug.
    pub fn new(start: Pfn, end: Pfn) -> Result<Self, AllocError> {
        assert!(start < end, "buddy range must be nonempty");
        let (start, end) = (start.0, end.0);
        let frames = end - start;
        let too_large = || AllocError::FrameTableTooLarge { frames };
        let mut spans = [0usize; ORDERS + 1];
        for k in 0..ORDERS {
            let slots = ((end - 1) >> k) - (start >> k) + 1;
            let words = usize::try_from(slots.div_ceil(64)).map_err(|_| too_large())?;
            spans[k + 1] = spans[k].checked_add(words).ok_or_else(too_large)?;
        }
        let orders = frame_table(frames, NOT_ALLOCATED)?;
        let words = reserved(spans[ORDERS] as u64, 0u64).ok_or_else(too_large)?;
        let mut lowest = [0usize; ORDERS];
        lowest.copy_from_slice(&spans[1..]);
        let mut a = BuddyAllocator {
            start,
            end,
            words,
            spans,
            counts: [0; ORDERS],
            lowest,
            orders,
            allocated: 0,
            free_pages: 0,
        };
        let mut pfn = start;
        while pfn < end {
            // Largest order that keeps the block naturally aligned and in range.
            let align_order = pfn.trailing_zeros().min(MAX_ORDER as u32 - 1) as u8;
            let mut order = align_order;
            while order > 0 && pfn + (1 << order) > end {
                order -= 1;
            }
            a.insert(order, pfn);
            a.free_pages += 1 << order;
            pfn += 1 << order;
        }
        Ok(a)
    }

    /// The bitmap word and bit of the block at `pfn` in order `order`'s
    /// bitmap.
    fn slot(&self, order: u8, pfn: u64) -> (usize, u64) {
        let i = (pfn >> order) - (self.start >> order);
        (self.spans[order as usize] + (i / 64) as usize, 1 << (i % 64))
    }

    /// Marks the block at `pfn` free at `order`.
    fn insert(&mut self, order: u8, pfn: u64) {
        let (w, bit) = self.slot(order, pfn);
        self.words[w] |= bit;
        let k = order as usize;
        self.counts[k] += 1;
        self.lowest[k] = self.lowest[k].min(w);
    }

    /// Takes the block at `pfn` off order `order`'s free blocks, returning
    /// whether it was free there.
    fn remove(&mut self, order: u8, pfn: u64) -> bool {
        let (w, bit) = self.slot(order, pfn);
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        let k = order as usize;
        self.counts[k] -= 1;
        if self.words[w] == 0 && self.lowest[k] == w {
            let end = self.spans[k + 1];
            self.lowest[k] = (w + 1..end).find(|&i| self.words[i] != 0).unwrap_or(end);
        }
        true
    }

    /// The lowest free block of order `order`, if any.
    fn first(&self, order: u8) -> Option<u64> {
        let k = order as usize;
        let w = self.lowest[k];
        if w == self.spans[k + 1] {
            return None;
        }
        let i = (w - self.spans[k]) as u64 * 64 + u64::from(self.words[w].trailing_zeros());
        Some(((self.start >> order) + i) << order)
    }

    /// First frame covered (inclusive).
    pub fn start(&self) -> Pfn {
        Pfn(self.start)
    }

    /// One past the last frame covered (exclusive).
    pub fn end(&self) -> Pfn {
        Pfn(self.end)
    }

    /// Number of currently free frames.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Total frames managed.
    pub fn total_pages(&self) -> u64 {
        self.end - self.start
    }

    /// Whether `pfn` lies in the managed range.
    pub fn contains(&self, pfn: Pfn) -> bool {
        (self.start..self.end).contains(&pfn.0)
    }

    /// Largest order with a free block, or `None` if empty.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..MAX_ORDER).rev().find(|&o| self.counts[o as usize] > 0)
    }

    /// Allocates a naturally aligned block of `2^order` frames.
    ///
    /// # Errors
    ///
    /// - [`AllocError::OrderTooLarge`] if `order >= MAX_ORDER`;
    /// - [`AllocError::OutOfMemory`] with [`ZoneKind::Normal`](crate::ZoneKind)
    ///   if no block of `order` or larger is free — zone-level callers
    ///   re-tag it.
    pub fn alloc(&mut self, order: u8) -> Result<Pfn, AllocError> {
        if order >= MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        // Find the smallest order with a free block.
        let Some(have) = (order..MAX_ORDER).find(|&o| self.counts[o as usize] > 0) else {
            return Err(AllocError::OutOfMemory { zone: crate::ZoneKind::Normal, order });
        };
        let block = self.first(have).expect("a counted order has a free block");
        self.remove(have, block);
        // Split down to the requested order, freeing upper halves.
        for current in (order..have).rev() {
            self.insert(current, block + (1u64 << current));
        }
        self.orders[(block - self.start) as usize] = order;
        self.allocated += 1;
        self.free_pages -= 1 << order;
        Ok(Pfn(block))
    }

    /// Frees a block previously returned by [`alloc`](Self::alloc),
    /// coalescing with free buddies.
    ///
    /// # Errors
    ///
    /// - [`AllocError::NotAllocated`] if `pfn` is not an allocated block
    ///   start;
    /// - [`AllocError::OrderMismatch`] if the order differs from the
    ///   allocation.
    pub fn free(&mut self, pfn: Pfn, order: u8) -> Result<(), AllocError> {
        if !self.contains(pfn) {
            return Err(AllocError::NotAllocated { pfn });
        }
        let head = &mut self.orders[(pfn.0 - self.start) as usize];
        match *head {
            NOT_ALLOCATED => return Err(AllocError::NotAllocated { pfn }),
            a if a != order => {
                return Err(AllocError::OrderMismatch { pfn, allocated: a, freed: order })
            }
            _ => *head = NOT_ALLOCATED,
        }
        self.allocated -= 1;
        self.free_pages += 1 << order;
        let mut block = pfn.0;
        let mut order = order;
        while order + 1 < MAX_ORDER {
            let buddy = block ^ (1u64 << order);
            // The buddy must be wholly inside the range and free at the
            // same order to coalesce.
            if buddy < self.start || buddy + (1 << order) > self.end || !self.remove(order, buddy) {
                break;
            }
            block = block.min(buddy);
            order += 1;
        }
        self.insert(order, block);
        Ok(())
    }

    /// Number of live allocations (for leak checks in tests).
    pub fn allocated_blocks(&self) -> usize {
        self.allocated
    }
}

/// The ordered-set buddy this module's flat bitmaps replaced, kept as the
/// oracle of the differential test below.
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeSet, HashMap};

    use super::MAX_ORDER;
    use crate::error::AllocError;
    use crate::frame::Pfn;

    /// Free lists as ordered sets, allocated blocks in a map.
    pub(super) struct SetBuddy {
        start: u64,
        end: u64,
        free_lists: Vec<BTreeSet<u64>>,
        allocated: HashMap<u64, u8>,
        free_pages: u64,
    }

    impl SetBuddy {
        pub(super) fn new(start: Pfn, end: Pfn) -> Self {
            let mut a = SetBuddy {
                start: start.0,
                end: end.0,
                free_lists: vec![BTreeSet::new(); MAX_ORDER as usize],
                allocated: HashMap::new(),
                free_pages: 0,
            };
            let mut pfn = start.0;
            while pfn < end.0 {
                let mut order = pfn.trailing_zeros().min(MAX_ORDER as u32 - 1) as u8;
                while order > 0 && pfn + (1 << order) > end.0 {
                    order -= 1;
                }
                a.free_lists[order as usize].insert(pfn);
                a.free_pages += 1 << order;
                pfn += 1 << order;
            }
            a
        }

        pub(super) fn free_pages(&self) -> u64 {
            self.free_pages
        }

        pub(super) fn largest_free_order(&self) -> Option<u8> {
            (0..MAX_ORDER).rev().find(|&o| !self.free_lists[o as usize].is_empty())
        }

        pub(super) fn allocated_blocks(&self) -> usize {
            self.allocated.len()
        }

        pub(super) fn alloc(&mut self, order: u8) -> Result<Pfn, AllocError> {
            if order >= MAX_ORDER {
                return Err(AllocError::OrderTooLarge { order });
            }
            let Some(have) = (order..MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())
            else {
                return Err(AllocError::OutOfMemory { zone: crate::ZoneKind::Normal, order });
            };
            let block = self.free_lists[have as usize].pop_first().expect("nonempty");
            for current in (order..have).rev() {
                self.free_lists[current as usize].insert(block + (1u64 << current));
            }
            self.allocated.insert(block, order);
            self.free_pages -= 1 << order;
            Ok(Pfn(block))
        }

        pub(super) fn free(&mut self, pfn: Pfn, order: u8) -> Result<(), AllocError> {
            match self.allocated.get(&pfn.0) {
                None => return Err(AllocError::NotAllocated { pfn }),
                Some(&a) if a != order => {
                    return Err(AllocError::OrderMismatch { pfn, allocated: a, freed: order })
                }
                Some(_) => {}
            }
            self.allocated.remove(&pfn.0);
            self.free_pages += 1 << order;
            let (mut block, mut order) = (pfn.0, order);
            while order + 1 < MAX_ORDER {
                let buddy = block ^ (1u64 << order);
                if buddy < self.start
                    || buddy + (1 << order) > self.end
                    || !self.free_lists[order as usize].remove(&buddy)
                {
                    break;
                }
                block = block.min(buddy);
                order += 1;
            }
            self.free_lists[order as usize].insert(block);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::oracle::SetBuddy;
    use super::*;

    /// One step of a differential run: `(kind, order, pick)`. Kinds 0–1
    /// allocate `order` (orders past [`MAX_ORDER`] included); 2 frees a
    /// live block at its own order; 3 frees a live block at `order`, which
    /// may mismatch; 4 frees a freed block again or a frame that may lie
    /// outside the range.
    fn steps() -> impl Strategy<Value = Vec<(u8, u8, usize)>> {
        proptest::collection::vec((0u8..5, 0u8..MAX_ORDER + 2, 0usize..4096), 1..160)
    }

    /// A frame range from `(aligned, start, len)`: a whole number of
    /// maximal blocks, or any range.
    fn range(aligned: bool, start: u64, len: u64) -> (Pfn, Pfn) {
        if aligned {
            let start = (start % 4) << 10;
            (Pfn(start), Pfn(start + ((1 + len % 2) << 10)))
        } else {
            (Pfn(start), Pfn(start + len))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitmaps and the ordered-set oracle agree on every result,
        /// error and gauge through random alloc/free sequences.
        #[test]
        fn bitmap_buddy_matches_the_ordered_set_oracle(
            aligned in 0u8..2,
            start in 0u64..3000,
            len in 1u64..2100,
            steps in steps(),
        ) {
            let (lo, hi) = range(aligned == 1, start, len);
            let mut b = BuddyAllocator::new(lo, hi).unwrap();
            let mut o = SetBuddy::new(lo, hi);
            let mut live: Vec<(Pfn, u8)> = Vec::new();
            let mut dead: Vec<(Pfn, u8)> = Vec::new();
            for (kind, order, pick) in steps {
                let (got, want) = match kind {
                    0 | 1 => {
                        let (got, want) = (b.alloc(order), o.alloc(order));
                        prop_assert_eq!(&got, &want);
                        if let Ok(pfn) = got {
                            live.push((pfn, order));
                        }
                        continue;
                    }
                    2 | 3 if !live.is_empty() => {
                        let i = pick % live.len();
                        let (pfn, own) = live[i];
                        let order = if kind == 2 { own } else { order };
                        let got = b.free(pfn, order);
                        if got.is_ok() {
                            dead.push(live.swap_remove(i));
                        }
                        (got, o.free(pfn, order))
                    }
                    _ if pick % 2 == 0 && !dead.is_empty() => {
                        let (pfn, own) = dead[pick % dead.len()];
                        (b.free(pfn, own), o.free(pfn, own))
                    }
                    _ => {
                        let pfn = Pfn(lo.0.saturating_sub(2) + pick as u64 % (hi.0 - lo.0 + 4));
                        (b.free(pfn, order), o.free(pfn, order))
                    }
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(b.free_pages(), o.free_pages());
                prop_assert_eq!(b.largest_free_order(), o.largest_free_order());
                prop_assert_eq!(b.allocated_blocks(), o.allocated_blocks());
            }
            for (pfn, order) in live {
                prop_assert_eq!(b.free(pfn, order), o.free(pfn, order));
            }
            prop_assert_eq!(b.free_pages(), hi.0 - lo.0);
            prop_assert_eq!(b.largest_free_order(), o.largest_free_order());
            prop_assert_eq!(b.allocated_blocks(), 0);
            prop_assert_eq!(b, BuddyAllocator::new(lo, hi).unwrap());
        }
    }

    #[test]
    fn tables_that_cannot_be_reserved_are_a_typed_error() {
        let frames = 1u64 << 62;
        let err = BuddyAllocator::new(Pfn(0), Pfn(frames)).unwrap_err();
        assert_eq!(err, AllocError::FrameTableTooLarge { frames });
    }

    #[test]
    fn fresh_allocator_is_fully_free() {
        let b = BuddyAllocator::new(Pfn(0), Pfn(1024)).unwrap();
        assert_eq!(b.free_pages(), 1024);
        assert_eq!(b.total_pages(), 1024);
        assert_eq!(b.largest_free_order(), Some(MAX_ORDER - 1));
    }

    #[test]
    fn alloc_free_round_trip_restores_state() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(1024)).unwrap();
        let before = b.clone();
        let p = b.alloc(3).unwrap();
        assert_eq!(b.free_pages(), 1024 - 8);
        b.free(p, 3).unwrap();
        assert_eq!(b, before, "coalescing must fully restore the initial state");
    }

    #[test]
    fn allocations_are_naturally_aligned() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(1024)).unwrap();
        for order in 0..MAX_ORDER {
            let p = b.alloc(order).unwrap();
            assert_eq!(p.0 % (1 << order), 0, "order {order} block misaligned");
            b.free(p, order).unwrap();
        }
    }

    #[test]
    fn alloc_exhaustion() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(4)).unwrap();
        let mut pages = Vec::new();
        for _ in 0..4 {
            pages.push(b.alloc(0).unwrap());
        }
        assert!(matches!(b.alloc(0), Err(AllocError::OutOfMemory { .. })));
        assert_eq!(b.free_pages(), 0);
        for p in pages {
            b.free(p, 0).unwrap();
        }
        assert_eq!(b.free_pages(), 4);
    }

    #[test]
    fn double_free_rejected() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(16)).unwrap();
        let p = b.alloc(1).unwrap();
        b.free(p, 1).unwrap();
        assert!(matches!(b.free(p, 1), Err(AllocError::NotAllocated { .. })));
    }

    #[test]
    fn wrong_order_free_rejected() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(16)).unwrap();
        let p = b.alloc(2).unwrap();
        assert!(matches!(
            b.free(p, 1),
            Err(AllocError::OrderMismatch { allocated: 2, freed: 1, .. })
        ));
        b.free(p, 2).unwrap();
    }

    #[test]
    fn order_too_large_rejected() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(16)).unwrap();
        assert!(matches!(b.alloc(MAX_ORDER), Err(AllocError::OrderTooLarge { .. })));
    }

    #[test]
    fn unaligned_range_is_covered_exactly() {
        let b = BuddyAllocator::new(Pfn(3), Pfn(21)).unwrap();
        assert_eq!(b.free_pages(), 18);
        assert!(b.contains(Pfn(3)));
        assert!(b.contains(Pfn(20)));
        assert!(!b.contains(Pfn(21)));
        assert!(!b.contains(Pfn(2)));
    }

    #[test]
    fn unaligned_range_allocations_stay_in_range() {
        let mut b = BuddyAllocator::new(Pfn(3), Pfn(21)).unwrap();
        let mut got = Vec::new();
        while let Ok(p) = b.alloc(0) {
            assert!((3..21).contains(&p.0));
            got.push(p.0);
        }
        got.sort_unstable();
        assert_eq!(got, (3..21).collect::<Vec<_>>());
    }

    #[test]
    fn split_then_coalesce_across_many_orders() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(256)).unwrap();
        let initial = b.clone();
        let mut blocks = Vec::new();
        // Fragment the arena with mixed orders, then free in reverse.
        for order in [0u8, 4, 2, 0, 6, 1, 3] {
            blocks.push((b.alloc(order).unwrap(), order));
        }
        for (p, o) in blocks.into_iter().rev() {
            b.free(p, o).unwrap();
        }
        assert_eq!(b, initial);
    }

    #[test]
    fn lowest_address_first_policy() {
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(64)).unwrap();
        let a = b.alloc(0).unwrap();
        let c = b.alloc(0).unwrap();
        assert!(a < c, "allocation order should ascend from the bottom");
        assert_eq!(a, Pfn(0));
    }
}
