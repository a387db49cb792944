use std::fmt;
use std::rc::Rc;

use rand::Rng;

use crate::bitplane::{count_ones, load_word, store_word, words_for_bits};
use crate::bounded::RowMapCache;
use crate::cells::CellType;
use crate::config::RetentionParams;
use crate::geometry::RowId;
#[cfg(test)]
use crate::rng::hash3;
use crate::rng::{mantissa_cutoff, poisson, stream_rng, to_unit, RowBlocks};
use crate::vuln::MODEL_CACHE_ROWS;

/// Seed salt of the ordinary retention draw ("ORDI").
const ORDI_SALT: u64 = 0x4F52_4449;

/// Seed salt of the long-retention population ("RETN").
const RETN_SALT: u64 = 0x5245_544E;

/// Low bits of a packed retention-index key that hold the cell index; the
/// high `64 - 21 = 43` bits hold the retention time in nanoseconds.
const INDEX_BIT_WIDTH: u32 = 21;

/// Default payload-byte budget of the per-row retention index cache. The
/// index weighs 8 bytes per cell (256 KiB for a 4 KiB row), so unlike the
/// other model caches it is bounded by bytes, not entries.
const INDEX_CACHE_BYTES: usize = 64 << 20;

/// A cell with unusually long retention, discoverable by profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LongCell {
    /// Bit index within its row.
    pub bit: u64,
    /// Retention time in nanoseconds.
    pub retention_ns: u64,
}

/// Deterministic per-cell retention times for a module.
///
/// Retention is a manufacturing property: each cell keeps its charge for a
/// fixed time once refresh stops (section 2.1). Ordinary cells draw their
/// retention uniformly from `[min_ns, max_ns]`; a sparse population of
/// long-retention cells (fraction `long_fraction`) draws from
/// `[long_min_ns, long_max_ns]`. Both populations are functions of the
/// module seed, so profiling results are stable — which the coldboot guard
/// (section 8) depends on.
///
/// Every per-row cache is a [`RowMapCache`]: clones of the model (a
/// module's forks and journal snapshots) account their cached rows
/// separately but share the built maps, which are pure functions of
/// (seed, params, row, elapsed window, row bits).
#[derive(Clone)]
pub(crate) struct RetentionModel {
    seed: u64,
    params: RetentionParams,
    bits_per_row: u64,
    long_cache: RowMapCache<u64, LongCell>,
    /// Expired-cell masks for the wordwise partial-decay path, keyed by
    /// `(row, elapsed_ns, row bits)`: bit `b` is set iff that cell's
    /// retention has expired after `elapsed_ns` without refresh. A mask is
    /// built from the sorted per-row retention index in O(expired bits)
    /// (one `partition_point`, then one bit-set per expired cell);
    /// memoizing it keeps repeated sweeps of the same elapsed bucket
    /// (profiling passes, forked campaigns) allocation-free.
    expired: RowMapCache<(u64, u64, u64), u64>,
    /// Sorted per-row retention index, keyed by `(row, row bits)`: one
    /// packed `retention_ns << 21 | bit` key per *ordinary* cell, ascending.
    /// Built lazily — a row's first partial-decay window uses a direct
    /// counter-mode scan and leaves an empty marker; the second distinct
    /// window pays one sort, after which every further window's mask
    /// first-build is a binary search plus O(expired bits) instead of an
    /// O(row bits) rescan. Byte-budgeted (8 bytes/cell, zero-weight
    /// markers) rather than entry-bounded.
    index: RowMapCache<(u64, u64), u64>,
    /// Decays partial windows with [`Self::apply_decay_scalar`], the test
    /// oracle of the wordwise path.
    #[cfg(test)]
    pub(crate) scalar_reference: bool,
}

impl fmt::Debug for RetentionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetentionModel")
            .field("seed", &self.seed)
            .field("params", &self.params)
            .field("cached_rows", &self.long_cache.len())
            .finish()
    }
}

impl RetentionModel {
    pub(crate) fn new(params: RetentionParams, bits_per_row: u64, seed: u64) -> Self {
        RetentionModel {
            seed,
            params,
            bits_per_row,
            long_cache: RowMapCache::new(MODEL_CACHE_ROWS),
            expired: RowMapCache::new(MODEL_CACHE_ROWS),
            index: {
                let mut index = RowMapCache::new(MODEL_CACHE_ROWS);
                index.set_byte_budget(Some(INDEX_CACHE_BYTES));
                index
            },
            #[cfg(test)]
            scalar_reference: false,
        }
    }

    /// Total accounting evictions (long cells + expired masks) since creation.
    /// Retention-index evictions are excluded: the index is an acceleration
    /// structure the scalar test oracle never builds, and the mirrored stats
    /// counter must match that oracle byte for byte.
    pub(crate) fn evictions(&self) -> u64 {
        self.long_cache.evictions() + self.expired.evictions()
    }

    /// Rows currently memoized in the largest of the caches.
    pub(crate) fn cached_rows(&self) -> usize {
        self.long_cache.len().max(self.expired.len()).max(self.index.len())
    }

    /// Payload bytes the shared stores of all retention caches retain,
    /// acceleration structures included.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.long_cache.stored_bytes() + self.expired.stored_bytes() + self.index.stored_bytes()
    }

    /// Payload bytes the long-cell accounting holds — the model content
    /// the scalar test oracle shares, mirrored into the
    /// `retention_cache_bytes` gauge.
    pub(crate) fn long_bytes(&self) -> usize {
        self.long_cache.held_bytes()
    }

    /// Rebounds all caches to `rows` entries.
    pub(crate) fn set_cache_capacity(&mut self, rows: usize) {
        self.long_cache.set_capacity(rows);
        self.expired.set_capacity(rows);
        self.index.set_capacity(rows);
    }

    /// Sets or clears the payload-byte budget of every retention cache.
    pub(crate) fn set_cache_bytes(&mut self, budget: Option<usize>) {
        self.long_cache.set_byte_budget(budget);
        self.expired.set_byte_budget(budget);
        self.index.set_byte_budget(budget);
    }

    /// The long-retention cells of `row`, sorted by bit index, generated on
    /// first use and memoized.
    pub(crate) fn long_cells(&mut self, row: RowId) -> Rc<[LongCell]> {
        if let Some(cells) = self.long_cache.get(&row.0) {
            return cells;
        }
        let cells = self.generate_long_cells(row);
        self.long_cache.insert(
            row.0,
            Rc::clone(&cells),
            std::mem::size_of_val::<[LongCell]>(&cells),
        );
        cells
    }

    /// Draws the long-retention cells of `row`: a Poisson count, then
    /// position and retention draws from a per-row ChaCha stream.
    ///
    /// A bit drawn twice keeps its first draw, as a stable sort by bit plus
    /// dedup would: draw `i` of bit `b` sorts as the key `b << 32 | i`, so
    /// one unstable sort of packed keys orders by bit, then by draw. A row
    /// has at most 2^31 bits (`MAX_ROW_BYTES`), so `b` fits above the draw.
    fn generate_long_cells(&self, row: RowId) -> Rc<[LongCell]> {
        let mut rng = stream_rng(self.seed ^ RETN_SALT, row.0);
        let n = poisson(&mut rng, self.bits_per_row as f64 * self.params.long_fraction);
        let span = (self.params.long_max_ns - self.params.long_min_ns) as f64;
        let (mut keys, mut retentions) =
            (Vec::with_capacity(n as usize), Vec::with_capacity(n as usize));
        for _ in 0..n {
            keys.push(rng.gen_range(0..self.bits_per_row));
            retentions.push(self.params.long_min_ns + (rng.gen::<f64>() * span) as u64);
        }
        for (key, draw) in keys.iter_mut().zip(0..) {
            *key = *key << 32 | draw;
        }
        keys.sort_unstable();
        keys.dedup_by_key(|k| *k >> 32);
        keys.iter()
            .map(|&k| LongCell { bit: k >> 32, retention_ns: retentions[k as u32 as usize] })
            .collect()
    }

    /// The long-cell draws of `row` in stream order, duplicates kept: a
    /// stable sort by bit plus dedup of these is the oracle
    /// [`Self::generate_long_cells`] is checked against.
    #[cfg(test)]
    fn long_cell_draws(&self, row: RowId) -> Vec<LongCell> {
        let mut rng = stream_rng(self.seed ^ RETN_SALT, row.0);
        let n = poisson(&mut rng, self.bits_per_row as f64 * self.params.long_fraction);
        let span = self.params.long_max_ns - self.params.long_min_ns;
        (0..n)
            .map(|_| LongCell {
                bit: rng.gen_range(0..self.bits_per_row),
                retention_ns: self.params.long_min_ns + (rng.gen::<f64>() * span as f64) as u64,
            })
            .collect()
    }

    /// Retention time of an ordinary (non-long) cell.
    #[cfg(test)]
    fn ordinary_retention_ns(&self, row: RowId, bit: u64) -> u64 {
        let u = to_unit(hash3(self.seed ^ ORDI_SALT, row.0, bit));
        self.params.min_ns + (u * (self.params.max_ns - self.params.min_ns) as f64) as u64
    }

    /// Retention time of any cell (long cells shadow ordinary draws).
    #[cfg(test)]
    pub(crate) fn retention_ns(&mut self, row: RowId, bit: u64) -> u64 {
        if let Ok(i) = self.long_cells(row).binary_search_by_key(&bit, |c| c.bit) {
            return self.long_cells(row)[i].retention_ns;
        }
        self.ordinary_retention_ns(row, bit)
    }

    /// Applies `elapsed_ns` of unrefreshed decay to a row's stored bytes.
    ///
    /// Cells whose retention has expired read as the discharged value of the
    /// row's polarity. Returns the number of bits whose logic value changed.
    /// A partial window discharges the row's memoized expired-cell mask a
    /// word at a time; a test-only per-bit scalar loop is its oracle.
    pub(crate) fn apply_decay(
        &mut self,
        row: RowId,
        cell_type: CellType,
        bytes: &mut [u8],
        elapsed_ns: u64,
    ) -> u64 {
        if elapsed_ns < self.params.min_ns {
            return 0;
        }
        if elapsed_ns >= self.params.max_ns {
            return self.apply_full_decay(row, cell_type, bytes, elapsed_ns);
        }
        #[cfg(test)]
        if self.scalar_reference {
            return self.apply_decay_scalar(row, cell_type, bytes, elapsed_ns);
        }
        let target = if cell_type.discharged_value() { !0u64 } else { 0u64 };
        let mask = self.expired_mask(row, elapsed_ns, bytes.len() * crate::BITS_PER_BYTE);
        discharge_masked(bytes, &mask, target)
    }

    /// Full decay (`elapsed ≥ max_ns`): every ordinary cell has expired, so
    /// only long cells whose retention outlasts the wait keep their value.
    /// Snapshot those survivors, fill the row with the discharged value
    /// (counting the changed bits a word at a time), then restore them.
    fn apply_full_decay(
        &mut self,
        row: RowId,
        cell_type: CellType,
        bytes: &mut [u8],
        elapsed_ns: u64,
    ) -> u64 {
        let discharged = cell_type.discharged_value();
        let nbits = (bytes.len() * crate::BITS_PER_BYTE) as u64;
        let long = self.long_cells(row);
        let mut survivors = Vec::with_capacity(long.len());
        survivors.extend(
            long.iter()
                .filter(|c| c.retention_ns >= elapsed_ns && c.bit < nbits)
                .map(|c| (c.bit, get_bit(bytes, c.bit))),
        );
        let ones = count_ones(bytes);
        let mut changed = if discharged { nbits - ones } else { ones };
        bytes.fill(if discharged { 0xFF } else { 0x00 });
        for (bit, value) in survivors {
            if value != discharged {
                set_bit(bytes, bit, value);
                changed -= 1; // it had been counted as changed by the fill
            }
        }
        changed
    }

    /// Test oracle for [`Self::apply_decay`]: a partial window checks each
    /// bit's retention individually; the other windows share its paths.
    #[cfg(test)]
    pub(crate) fn apply_decay_scalar(
        &mut self,
        row: RowId,
        cell_type: CellType,
        bytes: &mut [u8],
        elapsed_ns: u64,
    ) -> u64 {
        if elapsed_ns < self.params.min_ns || elapsed_ns >= self.params.max_ns {
            return self.apply_decay(row, cell_type, bytes, elapsed_ns);
        }
        let discharged = cell_type.discharged_value();
        let mut changed = 0u64;
        for bit in 0..(bytes.len() as u64 * crate::BITS_PER_BYTE as u64) {
            if self.retention_ns(row, bit) < elapsed_ns && get_bit(bytes, bit) != discharged {
                set_bit(bytes, bit, discharged);
                changed += 1;
            }
        }
        changed
    }

    /// The expired-cell mask of `row` after `elapsed_ns` in a partial decay
    /// window (`min_ns ≤ elapsed < max_ns`), memoized per elapsed bucket.
    ///
    /// First-build consults the sorted retention index: the expired cells
    /// are exactly the prefix of keys whose retention component is below
    /// `elapsed_ns`, found with one `partition_point`. Rows too large (or
    /// retentions too long) for the packed key encoding fall back to a
    /// direct block-hash scan; both paths reproduce the scalar per-bit
    /// predicate `ordinary_retention_ns(row, bit) < elapsed_ns` exactly.
    fn expired_mask(&mut self, row: RowId, elapsed_ns: u64, nbits: usize) -> Rc<[u64]> {
        let key = (row.0, elapsed_ns, nbits as u64);
        // The accounting must see exactly the lookups a private memo cache
        // would make, whatever the shared store already holds: such a cache
        // builds a mask only on the key's first lookup, and only that build
        // looks up the row's long cells.
        let long = if self.expired.holds(&key) {
            if let Some(mask) = self.expired.get(&key) {
                return mask;
            }
            // Held, but another holder churned it out of the store: rebuild
            // without a lookup the private cache would not have made.
            self.long_cache.peek(&row.0).unwrap_or_else(|| self.generate_long_cells(row))
        } else {
            let long = self.long_cells(row);
            if let Some(mask) = self.expired.get(&key) {
                return mask;
            }
            long
        };
        let mut mask = vec![0u64; words_for_bits(nbits)];
        let packable =
            self.params.max_ns < 1 << (64 - INDEX_BIT_WIDTH) && nbits <= 1 << INDEX_BIT_WIDTH;
        let index_key = (row.0, nbits as u64);
        let cached = if packable { self.index.get(&index_key) } else { None };
        match cached {
            Some(index) if !index.is_empty() => {
                let expired = index.partition_point(|&k| k >> INDEX_BIT_WIDTH < elapsed_ns);
                for &k in &index[..expired] {
                    let bit = k & ((1 << INDEX_BIT_WIDTH) - 1);
                    mask[(bit / 64) as usize] |= 1u64 << (bit % 64);
                }
            }
            Some(_) if nbits > 0 => {
                // Second distinct elapsed bucket for this row: the sort now
                // pays for itself, so build the real index and use it.
                let index = self.build_index(row, nbits);
                let expired = index.partition_point(|&k| k >> INDEX_BIT_WIDTH < elapsed_ns);
                for &k in &index[..expired] {
                    let bit = k & ((1 << INDEX_BIT_WIDTH) - 1);
                    mask[(bit / 64) as usize] |= 1u64 << (bit % 64);
                }
            }
            _ => {
                // First build for this row (or keys that cannot pack): one
                // counter-mode scan, a third of the scalar mixing cost. The
                // expiry predicate `min_ns + (to_unit(h) · span) as u64 <
                // elapsed` is monotone in the hash mantissa, so one binary
                // search with the genuine float predicate turns the per-bit
                // test into a single integer compare — bit-exactly. When
                // packable, leave an empty-index marker so the next elapsed
                // bucket upgrades to the sorted index.
                let blocks = RowBlocks::new(self.seed ^ ORDI_SALT, row.0);
                let span = (self.params.max_ns - self.params.min_ns) as f64;
                let min_ns = self.params.min_ns;
                let cutoff =
                    mantissa_cutoff(|m| min_ns + ((to_unit(m << 11) * span) as u64) < elapsed_ns);
                for bit in 0..nbits as u64 {
                    if blocks.cell(bit) >> 11 < cutoff {
                        mask[(bit / 64) as usize] |= 1u64 << (bit % 64);
                    }
                }
                if packable {
                    self.index.insert(index_key, Vec::new().into(), 0);
                }
            }
        }
        // Long cells shadow the ordinary draw at their positions.
        for c in long.iter() {
            if (c.bit as usize) >= nbits {
                continue;
            }
            let (w, b) = ((c.bit / 64) as usize, c.bit % 64);
            if c.retention_ns < elapsed_ns {
                mask[w] |= 1u64 << b;
            } else {
                mask[w] &= !(1u64 << b);
            }
        }
        let mask: Rc<[u64]> = mask.into();
        self.expired.insert(key, Rc::clone(&mask), std::mem::size_of_val::<[u64]>(&mask));
        mask
    }

    /// Builds (and caches) the sorted retention index of `row` over its
    /// first `nbits` cells: one `retention_ns << 21 | bit` key per ordinary
    /// cell, ascending. The per-cell hashes come from the counter-mode
    /// block generator, which is hash-for-hash equal to the scalar
    /// `hash3` draw, so `partition_point` over the keys reproduces the
    /// scalar per-bit expiry predicate exactly.
    fn build_index(&mut self, row: RowId, nbits: usize) -> Rc<[u64]> {
        let key = (row.0, nbits as u64);
        let blocks = RowBlocks::new(self.seed ^ ORDI_SALT, row.0);
        let span = (self.params.max_ns - self.params.min_ns) as f64;
        let mut keys: Vec<u64> = (0..nbits as u64)
            .map(|bit| {
                let r = self.params.min_ns + (to_unit(blocks.cell(bit)) * span) as u64;
                r << INDEX_BIT_WIDTH | bit
            })
            .collect();
        keys.sort_unstable();
        let keys: Rc<[u64]> = keys.into();
        self.index.insert(key, Rc::clone(&keys), std::mem::size_of_val::<[u64]>(&keys));
        keys
    }
}

/// Drives every masked bit of `bytes` to its bit in `target` (all-ones or
/// all-zero), returning how many bits actually changed (popcount of the
/// per-word difference).
fn discharge_masked(bytes: &mut [u8], mask: &[u64], target: u64) -> u64 {
    let mut changed = 0u64;
    for (w, &m) in mask.iter().enumerate() {
        if m == 0 {
            continue;
        }
        let word = load_word(bytes, w);
        let diff = (word ^ target) & m;
        if diff == 0 {
            continue;
        }
        store_word(bytes, w, word ^ diff);
        changed += diff.count_ones() as u64;
    }
    changed
}

pub(crate) fn get_bit(bytes: &[u8], bit: u64) -> bool {
    bytes[(bit / 8) as usize] >> (bit % 8) & 1 == 1
}

pub(crate) fn set_bit(bytes: &mut [u8], bit: u64, value: bool) {
    let byte = &mut bytes[(bit / 8) as usize];
    if value {
        *byte |= 1 << (bit % 8);
    } else {
        *byte &= !(1 << (bit % 8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RetentionModel {
        RetentionModel::new(RetentionParams::default(), 4096 * 8, 0xFEED)
    }

    #[test]
    fn bit_helpers() {
        let mut b = vec![0u8; 2];
        set_bit(&mut b, 9, true);
        assert_eq!(b, vec![0, 2]);
        assert!(get_bit(&b, 9));
        set_bit(&mut b, 9, false);
        assert!(!get_bit(&b, 9));
    }

    #[test]
    fn retention_is_deterministic() {
        let mut m1 = model();
        let mut m2 = model();
        assert_eq!(m1.retention_ns(RowId(3), 100), m2.retention_ns(RowId(3), 100));
    }

    #[test]
    fn ordinary_retention_in_range() {
        let mut m = model();
        let p = m.params;
        for bit in 0..2000 {
            let r = m.retention_ns(RowId(0), bit);
            assert!(r >= p.min_ns);
            assert!(r <= p.long_max_ns);
        }
    }

    #[test]
    fn no_decay_before_min_retention() {
        let mut m = model();
        let mut bytes = vec![0xFFu8; 4096];
        let changed = m.apply_decay(RowId(0), CellType::True, &mut bytes, 1_000_000);
        assert_eq!(changed, 0);
        assert!(bytes.iter().all(|b| *b == 0xFF));
    }

    #[test]
    fn full_decay_discharges_true_cells_to_zero() {
        let mut m = model();
        let mut bytes = vec![0xFFu8; 4096];
        let elapsed = m.params.max_ns + 1;
        let changed = m.apply_decay(RowId(0), CellType::True, &mut bytes, elapsed);
        // All bits decay except surviving long cells.
        let surviving: u64 = bytes.iter().map(|b| b.count_ones() as u64).sum();
        let long = m.long_cells(RowId(0)).len() as u64;
        assert!(surviving <= long);
        assert_eq!(changed, 4096 * 8 - surviving);
    }

    #[test]
    fn full_decay_discharges_anti_cells_to_one() {
        let mut m = model();
        let mut bytes = vec![0x00u8; 4096];
        let elapsed = m.params.max_ns + 1;
        m.apply_decay(RowId(1), CellType::Anti, &mut bytes, elapsed);
        let zeros: u64 = bytes.iter().map(|b| b.count_zeros() as u64).sum();
        let long = m.long_cells(RowId(1)).len() as u64;
        assert!(zeros <= long, "zeros={zeros} long={long}");
    }

    #[test]
    fn partial_decay_is_monotonic_in_time() {
        let mut m = model();
        let p = m.params;
        let mut early = vec![0xFFu8; 4096];
        let mut late = vec![0xFFu8; 4096];
        m.apply_decay(RowId(2), CellType::True, &mut early, p.min_ns + (p.max_ns - p.min_ns) / 4);
        m.apply_decay(RowId(2), CellType::True, &mut late, p.min_ns + (p.max_ns - p.min_ns) / 2);
        let ones_early: u32 = early.iter().map(|b| b.count_ones()).sum();
        let ones_late: u32 = late.iter().map(|b| b.count_ones()).sum();
        assert!(ones_late <= ones_early);
        assert!(ones_early < 4096 * 8, "some decay should have happened");
    }

    #[test]
    fn very_long_wait_kills_even_long_cells() {
        let mut m = model();
        let mut bytes = vec![0xFFu8; 4096];
        m.apply_decay(RowId(0), CellType::True, &mut bytes, m.params.long_max_ns + 1);
        assert!(bytes.iter().all(|b| *b == 0));
    }

    #[test]
    fn wordwise_decay_matches_scalar_exactly() {
        let p = RetentionParams::default();
        let elapsed_values = [
            p.min_ns,
            p.min_ns + (p.max_ns - p.min_ns) / 3,
            p.max_ns - 1,
            p.max_ns,
            p.max_ns + 1,
            p.long_min_ns + 5,
            p.long_max_ns + 1,
        ];
        for cell_type in [CellType::True, CellType::Anti] {
            for (fill, elapsed) in
                elapsed_values.iter().enumerate().map(|(i, e)| ([0xFF, 0x5A, 0x00][i % 3], *e))
            {
                let mut scalar = model();
                let mut wordwise = model();
                let mut sb = vec![fill; 4096];
                let mut wb = sb.clone();
                let cs = scalar.apply_decay_scalar(RowId(3), cell_type, &mut sb, elapsed);
                let cw = wordwise.apply_decay(RowId(3), cell_type, &mut wb, elapsed);
                assert_eq!(cs, cw, "changed counts diverged at elapsed={elapsed} {cell_type:?}");
                assert_eq!(sb, wb, "row bytes diverged at elapsed={elapsed} {cell_type:?}");
            }
        }
    }

    #[test]
    fn wordwise_decay_matches_scalar_on_tail_words() {
        // Rows whose bit counts are not multiples of 64: the engine's last
        // word is a zero-padded tail word (plus a 96-bit full+tail mix).
        let p = RetentionParams::default();
        for len in [1usize, 2, 4, 12] {
            for elapsed in [p.min_ns + (p.max_ns - p.min_ns) / 2, p.max_ns + 1] {
                let mut scalar = RetentionModel::new(p, (len * 8) as u64, 0xFEED);
                let mut wordwise = RetentionModel::new(p, (len * 8) as u64, 0xFEED);
                let mut sb = vec![0xFFu8; len];
                let mut wb = sb.clone();
                let cs = scalar.apply_decay_scalar(RowId(0), CellType::True, &mut sb, elapsed);
                let cw = wordwise.apply_decay(RowId(0), CellType::True, &mut wb, elapsed);
                assert_eq!(cs, cw, "len={len} elapsed={elapsed}");
                assert_eq!(sb, wb, "len={len} elapsed={elapsed}");
            }
        }
    }

    #[test]
    fn full_decay_matches_per_bit_oracle() {
        // A dense long-cell population, so even 1-byte rows have survivors.
        let p = RetentionParams { long_fraction: 0.2, ..RetentionParams::default() };
        let mut survivors = 0usize;
        for len in [1usize, 2, 4, 8, 4096] {
            let nbits = (len * 8) as u64;
            for r in 0..4 {
                let row = RowId(r);
                let mut m = RetentionModel::new(p, nbits, 0xFEED);
                // The ordinary maximum, inside the long span, exactly one long
                // cell's retention (which is not below the wait, so it
                // survives), and past every long cell.
                let mut windows =
                    vec![p.max_ns, (p.long_min_ns + p.long_max_ns) / 2, p.long_max_ns + 1];
                windows.extend(m.long_cells(row).first().map(|c| c.retention_ns));
                for elapsed in windows {
                    let expired: Vec<bool> =
                        (0..nbits).map(|bit| m.retention_ns(row, bit) < elapsed).collect();
                    for cell_type in [CellType::True, CellType::Anti] {
                        let discharged = cell_type.discharged_value();
                        for fill in [0x00u8, 0xFF, 0x5A] {
                            let before: Vec<u8> =
                                (0..len).map(|i| fill ^ (i as u8).wrapping_mul(29)).collect();
                            let mut expected = before.clone();
                            let mut expected_changed = 0u64;
                            for bit in 0..nbits {
                                if get_bit(&before, bit) == discharged {
                                    continue;
                                }
                                if expired[bit as usize] {
                                    set_bit(&mut expected, bit, discharged);
                                    expected_changed += 1;
                                } else {
                                    survivors += 1;
                                }
                            }
                            let mut bytes = before.clone();
                            let changed = m.apply_decay(row, cell_type, &mut bytes, elapsed);
                            let at = format!(
                                "len={len} row={r} elapsed={elapsed} {cell_type:?} fill={fill:#x}"
                            );
                            assert_eq!(bytes, expected, "{at}");
                            assert_eq!(changed, expected_changed, "{at}");
                        }
                    }
                }
            }
        }
        assert!(survivors > 0, "long-cell survivors must be exercised");
    }

    #[test]
    fn expired_mask_is_memoized_and_bounded() {
        let mut m = model();
        m.set_cache_capacity(2);
        let p = m.params;
        let elapsed = p.min_ns + (p.max_ns - p.min_ns) / 2;
        let mut reference = vec![0xFFu8; 4096];
        m.apply_decay(RowId(0), CellType::True, &mut reference, elapsed);
        // A second sweep of the same (row, elapsed) hits the mask cache and
        // must decay a fresh row identically.
        let mut again = vec![0xFFu8; 4096];
        m.apply_decay(RowId(0), CellType::True, &mut again, elapsed);
        assert_eq!(reference, again);
        // Sweeping more rows than the capacity evicts deterministically.
        for r in 1..6 {
            let mut b = vec![0xFFu8; 4096];
            m.apply_decay(RowId(r), CellType::True, &mut b, elapsed);
        }
        assert!(m.cached_rows() <= 2);
        assert!(m.evictions() > 0);
    }

    #[test]
    fn fallback_scan_matches_scalar_when_index_unpackable() {
        // Retentions too long for the 43-bit packed key: the wordwise
        // partial-decay path must take the direct block-hash fallback and
        // still reproduce the scalar per-bit reference exactly.
        let p = RetentionParams {
            min_ns: 1 << 42,
            max_ns: 1 << 43, // ≥ 2^43 ⟹ keys cannot pack
            long_fraction: 1e-3,
            long_min_ns: 1 << 44,
            long_max_ns: 1 << 45,
        };
        for elapsed in [(1u64 << 42) + (1 << 40), (1 << 42) + (1 << 42) / 2] {
            let mut scalar = RetentionModel::new(p, 4096 * 8, 0xFEED);
            let mut wordwise = RetentionModel::new(p, 4096 * 8, 0xFEED);
            let mut sb = vec![0xA5u8; 4096];
            let mut wb = sb.clone();
            let cs = scalar.apply_decay_scalar(RowId(7), CellType::True, &mut sb, elapsed);
            let cw = wordwise.apply_decay(RowId(7), CellType::True, &mut wb, elapsed);
            assert_eq!(cs, cw, "elapsed={elapsed}");
            assert_eq!(sb, wb, "elapsed={elapsed}");
            assert_eq!(wordwise.index.len(), 0, "unpackable params must not build an index");
        }
    }

    #[test]
    fn index_byte_budget_evicts_without_changing_decay() {
        // A byte budget far below one index's weight (a 4 KiB row's index
        // is 32768 cells × 8 B = 256 KiB) forces eviction on every new row,
        // yet decay results must match an unbudgeted twin bit for bit.
        let p = RetentionParams::default();
        let buckets = [p.min_ns + (p.max_ns - p.min_ns) / 4, p.min_ns + (p.max_ns - p.min_ns) / 2];
        let mut capped = model();
        capped.set_cache_bytes(Some(64 * 1024));
        let mut uncapped = model();
        for r in 0..4 {
            // Two distinct elapsed buckets per row: the first leaves the
            // lazy marker, the second builds the real sorted index.
            for elapsed in buckets {
                let mut cb = vec![0xFFu8; 4096];
                let mut ub = cb.clone();
                capped.apply_decay(RowId(r), CellType::True, &mut cb, elapsed);
                uncapped.apply_decay(RowId(r), CellType::True, &mut ub, elapsed);
                assert_eq!(cb, ub, "row {r}");
            }
        }
        // The budget keeps at most one (over-budget) index resident, while
        // the default 64 MiB budget retains all four.
        assert!(capped.index.len() <= 1, "capped index len {}", capped.index.len());
        assert_eq!(uncapped.index.len(), 4);
        assert!(capped.cache_bytes() < uncapped.cache_bytes());
        // Index evictions stay out of the mirrored stats counter.
        assert_eq!(capped.evictions(), uncapped.evictions());
    }

    #[test]
    fn packed_key_long_cells_match_the_stable_sort_oracle() {
        let mut conflicting_duplicates = 0usize;
        // Dense populations on small rows draw the same bit twice with
        // different retentions.
        for (nbits, long_fraction) in
            [(8u64, 0.5), (64, 0.5), (512, 0.2), (4096 * 8, 1e-3), (4096 * 8, 0.05)]
        {
            let p = RetentionParams { long_fraction, ..RetentionParams::default() };
            for seed in [0xFEED, 1, u64::MAX] {
                let m = RetentionModel::new(p, nbits, seed);
                for r in 0..32 {
                    let mut oracle = m.long_cell_draws(RowId(r));
                    oracle.sort_by_key(|c| c.bit);
                    conflicting_duplicates += oracle
                        .windows(2)
                        .filter(|w| w[0].bit == w[1].bit && w[0].retention_ns != w[1].retention_ns)
                        .count();
                    oracle.dedup_by_key(|c| c.bit);
                    let cells = m.generate_long_cells(RowId(r));
                    assert_eq!(&*cells, &oracle[..], "nbits={nbits} seed={seed:#x} row={r}");
                }
            }
        }
        assert!(conflicting_duplicates > 0, "first-draw-wins must be exercised");
    }

    #[test]
    fn long_cells_sparse() {
        let mut m = model();
        // 4096*8 = 32768 bits, long_fraction 1e-3 → ~33 expected.
        let n = m.long_cells(RowId(5)).len();
        assert!(n < 100, "long cells should be sparse, got {n}");
    }
}
