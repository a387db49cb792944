use std::fmt;
use std::rc::Rc;

use rand::Rng;

use crate::bitplane::{load_word, store_word, words_for_bits};
use crate::bounded::RowMapCache;
use crate::cells::CellType;
use crate::config::RetentionParams;
use crate::geometry::RowId;
#[cfg(test)]
use crate::rng::hash3;
use crate::rng::{mantissa_cutoff, poisson, stream_rng, to_unit, RowBlocks};
use crate::store::RowMut;
use crate::vuln::MODEL_CACHE_ROWS;

/// Seed salt of the ordinary retention draw ("ORDI").
const ORDI_SALT: u64 = 0x4F52_4449;

/// Seed salt of the long-retention population ("RETN").
const RETN_SALT: u64 = 0x5245_544E;

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
/// Ordinary retention is a per-cell hash, recomputed by every partial-decay
/// window. The long-cell lists are memoized in a [`RowMapCache`]: clones of
/// the model (a module's forks and journal snapshots) account their cached
/// rows separately but share the built lists, which are pure functions of
/// (seed, params, row).
#[derive(Clone)]
pub(crate) struct RetentionModel {
    seed: u64,
    params: RetentionParams,
    bits_per_row: u64,
    long_cache: RowMapCache<LongCell>,
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
            #[cfg(test)]
            scalar_reference: false,
        }
    }

    /// Long-cell lists the accounting evicted since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.long_cache.evictions()
    }

    /// Rows whose long-cell lists are memoized.
    pub(crate) fn cached_rows(&self) -> usize {
        self.long_cache.len()
    }

    /// Payload bytes the shared long-cell store retains.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.long_cache.stored_bytes()
    }

    /// Payload bytes the long-cell accounting holds, mirrored into the
    /// `retention_cache_bytes` gauge.
    pub(crate) fn long_bytes(&self) -> usize {
        self.long_cache.held_bytes()
    }

    /// Rebounds the long-cell cache to `rows` entries.
    pub(crate) fn set_cache_capacity(&mut self, rows: usize) {
        self.long_cache.set_capacity(rows);
    }

    /// The long-retention cells of `row`, sorted by bit index, generated on
    /// first use and memoized.
    pub(crate) fn long_cells(&mut self, row: RowId) -> Rc<[LongCell]> {
        if let Some(cells) = self.long_cache.get(row.0) {
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

    /// Applies `elapsed_ns` of unrefreshed decay to a row's contents.
    ///
    /// Cells whose retention has expired read as the discharged value of the
    /// row's polarity. Returns the number of bits whose logic value changed.
    /// A partial window discharges the row's expired-cell mask a word at a
    /// time; a test-only per-bit scalar loop is its oracle. The row is read
    /// in place and copied (or expanded, if compact) only if a bit changes,
    /// so a decay that changes nothing leaves it as it was.
    pub(crate) fn apply_decay(
        &mut self,
        row: RowId,
        cell_type: CellType,
        bytes: &mut RowMut<'_>,
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
        let mask = self.expired_mask(row, elapsed_ns, bytes.view().len() * crate::BITS_PER_BYTE);
        discharge_masked(bytes, &mask, target)
    }

    /// Full decay (`elapsed ≥ max_ns`): every ordinary cell has expired, so
    /// only long cells whose retention outlasts the wait keep their value.
    /// The row becomes the discharged value throughout but for those
    /// survivors: a compact row of a decayed true-cell row's few dozen
    /// long cells (see the `store` module). The changed bits are counted
    /// from the row's ones.
    fn apply_full_decay(
        &mut self,
        row: RowId,
        cell_type: CellType,
        bytes: &mut RowMut<'_>,
        elapsed_ns: u64,
    ) -> u64 {
        let discharged = cell_type.discharged_value();
        let view = bytes.view();
        let nbits = (view.len() * crate::BITS_PER_BYTE) as u64;
        let long = self.long_cells(row);
        // The survivors still holding the charged value: each would count
        // as changed by the fill, and is set back after it.
        let mut survivors = Vec::with_capacity(long.len());
        survivors.extend(
            long.iter()
                .filter(|c| c.retention_ns >= elapsed_ns && c.bit < nbits)
                .map(|c| c.bit)
                .filter(|&bit| view.bit(bit) != discharged),
        );
        let ones = view.count_ones();
        let changed = if discharged { nbits - ones } else { ones } - survivors.len() as u64;
        if changed == 0 {
            return 0;
        }
        bytes.fill_except(if discharged { 0xFF } else { 0x00 }, &survivors);
        changed
    }

    /// Test oracle for [`Self::apply_decay`]: a partial window checks each
    /// bit's retention individually; the other windows share its paths.
    #[cfg(test)]
    pub(crate) fn apply_decay_scalar(
        &mut self,
        row: RowId,
        cell_type: CellType,
        bytes: &mut RowMut<'_>,
        elapsed_ns: u64,
    ) -> u64 {
        if elapsed_ns < self.params.min_ns || elapsed_ns >= self.params.max_ns {
            return self.apply_decay(row, cell_type, bytes, elapsed_ns);
        }
        let discharged = cell_type.discharged_value();
        let mut changed = 0u64;
        for bit in 0..(bytes.view().len() as u64 * crate::BITS_PER_BYTE as u64) {
            if self.retention_ns(row, bit) < elapsed_ns && bytes.view().bit(bit) != discharged {
                set_bit(bytes.bytes_mut(), bit, discharged);
                changed += 1;
            }
        }
        changed
    }

    /// The expired-cell mask of `row` after `elapsed_ns` in a partial decay
    /// window (`min_ns ≤ elapsed < max_ns`): bit `b` is set iff that cell's
    /// retention is below `elapsed_ns`.
    ///
    /// One counter-mode scan of the ordinary draws, a third of the scalar
    /// mixing cost. The expiry predicate `min_ns + (to_unit(h) · span) as
    /// u64 < elapsed` is monotone in the hash mantissa, so one binary search
    /// with the genuine float predicate turns the per-bit test into a single
    /// integer compare — bit-exactly. Long cells then shadow the ordinary
    /// draw at their positions.
    fn expired_mask(&mut self, row: RowId, elapsed_ns: u64, nbits: usize) -> Vec<u64> {
        let long = self.long_cells(row);
        let mut mask = vec![0u64; words_for_bits(nbits)];
        let blocks = RowBlocks::new(self.seed ^ ORDI_SALT, row.0);
        let span = (self.params.max_ns - self.params.min_ns) as f64;
        let min_ns = self.params.min_ns;
        let cutoff = mantissa_cutoff(|m| min_ns + ((to_unit(m << 11) * span) as u64) < elapsed_ns);
        for bit in 0..nbits as u64 {
            if blocks.cell(bit) >> 11 < cutoff {
                mask[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        for c in long.iter().filter(|c| (c.bit as usize) < nbits) {
            let (w, b) = ((c.bit / 64) as usize, c.bit % 64);
            if c.retention_ns < elapsed_ns {
                mask[w] |= 1u64 << b;
            } else {
                mask[w] &= !(1u64 << b);
            }
        }
        mask
    }
}

/// Drives every masked bit of `bytes` to its bit in `target` (all-ones or
/// all-zero), returning how many bits actually changed (popcount of the
/// per-word difference).
fn discharge_masked(bytes: &mut RowMut<'_>, mask: &[u64], target: u64) -> u64 {
    // Read the row in place up to the first word that changes.
    let view = bytes.view();
    let differs = |w: usize| (view.word(w) ^ target) & mask[w] != 0;
    let Some(first) = (0..mask.len()).position(|w| mask[w] != 0 && differs(w)) else {
        return 0;
    };
    let bytes = bytes.bytes_mut();
    let mut changed = 0u64;
    for (w, &m) in mask.iter().enumerate().skip(first) {
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

#[cfg(test)]
pub(crate) fn get_bit(bytes: &[u8], bit: u64) -> bool {
    bytes[(bit / 8) as usize] >> (bit % 8) & 1 == 1
}

#[cfg(test)]
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

    /// [`RetentionModel::apply_decay`], or with `scalar` its oracle, on a
    /// dense row held as `bytes`, left dense.
    fn decay_with(
        scalar: bool,
        m: &mut RetentionModel,
        row: RowId,
        cell_type: CellType,
        bytes: &mut Rc<[u8]>,
        elapsed_ns: u64,
    ) -> u64 {
        let (len, mut fill, mut charge) = (bytes.len(), None, 0);
        let mut row_mut = RowMut::new(bytes, &mut fill, len, &mut charge);
        let changed = if scalar {
            m.apply_decay_scalar(row, cell_type, &mut row_mut, elapsed_ns)
        } else {
            m.apply_decay(row, cell_type, &mut row_mut, elapsed_ns)
        };
        // A full decay may have left the row compact: expand it.
        row_mut.bytes_mut();
        changed
    }

    fn decay(
        m: &mut RetentionModel,
        row: RowId,
        cell_type: CellType,
        bytes: &mut Rc<[u8]>,
        elapsed_ns: u64,
    ) -> u64 {
        decay_with(false, m, row, cell_type, bytes, elapsed_ns)
    }

    fn decay_scalar(
        m: &mut RetentionModel,
        row: RowId,
        cell_type: CellType,
        bytes: &mut Rc<[u8]>,
        elapsed_ns: u64,
    ) -> u64 {
        decay_with(true, m, row, cell_type, bytes, elapsed_ns)
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
        let mut bytes: Rc<[u8]> = vec![0xFFu8; 4096].into();
        let changed = decay(&mut m, RowId(0), CellType::True, &mut bytes, 1_000_000);
        assert_eq!(changed, 0);
        assert!(bytes.iter().all(|b| *b == 0xFF));
    }

    #[test]
    fn full_decay_discharges_true_cells_to_zero() {
        let mut m = model();
        let mut bytes: Rc<[u8]> = vec![0xFFu8; 4096].into();
        let elapsed = m.params.max_ns + 1;
        let changed = decay(&mut m, RowId(0), CellType::True, &mut bytes, elapsed);
        // All bits decay except surviving long cells.
        let surviving: u64 = bytes.iter().map(|b| b.count_ones() as u64).sum();
        let long = m.long_cells(RowId(0)).len() as u64;
        assert!(surviving <= long);
        assert_eq!(changed, 4096 * 8 - surviving);
    }

    #[test]
    fn full_decay_discharges_anti_cells_to_one() {
        let mut m = model();
        let mut bytes: Rc<[u8]> = vec![0x00u8; 4096].into();
        let elapsed = m.params.max_ns + 1;
        decay(&mut m, RowId(1), CellType::Anti, &mut bytes, elapsed);
        let zeros: u64 = bytes.iter().map(|b| b.count_zeros() as u64).sum();
        let long = m.long_cells(RowId(1)).len() as u64;
        assert!(zeros <= long, "zeros={zeros} long={long}");
    }

    #[test]
    fn partial_decay_is_monotonic_in_time() {
        let mut m = model();
        let p = m.params;
        let mut early: Rc<[u8]> = vec![0xFFu8; 4096].into();
        let mut late: Rc<[u8]> = vec![0xFFu8; 4096].into();
        decay(&mut m, RowId(2), CellType::True, &mut early, p.min_ns + (p.max_ns - p.min_ns) / 4);
        decay(&mut m, RowId(2), CellType::True, &mut late, p.min_ns + (p.max_ns - p.min_ns) / 2);
        let ones_early: u32 = early.iter().map(|b| b.count_ones()).sum();
        let ones_late: u32 = late.iter().map(|b| b.count_ones()).sum();
        assert!(ones_late <= ones_early);
        assert!(ones_early < 4096 * 8, "some decay should have happened");
    }

    #[test]
    fn very_long_wait_kills_even_long_cells() {
        let mut m = model();
        let mut bytes: Rc<[u8]> = vec![0xFFu8; 4096].into();
        let elapsed = m.params.long_max_ns + 1;
        decay(&mut m, RowId(0), CellType::True, &mut bytes, elapsed);
        assert!(bytes.iter().all(|b| *b == 0));
    }

    #[test]
    fn wordwise_decay_matches_scalar_exactly() {
        // The default params, and retentions of 2^42 ns and beyond.
        let long = RetentionParams {
            min_ns: 1 << 42,
            max_ns: 1 << 43,
            long_fraction: 1e-3,
            long_min_ns: 1 << 44,
            long_max_ns: 1 << 45,
        };
        for p in [RetentionParams::default(), long] {
            let span = p.max_ns - p.min_ns;
            let elapsed_values = [
                p.min_ns,
                p.min_ns + span / 3,
                p.min_ns + span / 2,
                p.max_ns - 1,
                p.max_ns,
                p.max_ns + 1,
                p.long_min_ns + 5,
                p.long_max_ns + 1,
            ];
            for cell_type in [CellType::True, CellType::Anti] {
                // One model of each kind decays the row through every window.
                let mut scalar = RetentionModel::new(p, 4096 * 8, 0xFEED);
                let mut wordwise = RetentionModel::new(p, 4096 * 8, 0xFEED);
                for (fill, elapsed) in
                    elapsed_values.iter().enumerate().map(|(i, e)| ([0xFF, 0x5A, 0x00][i % 3], *e))
                {
                    let mut sb: Rc<[u8]> = vec![fill; 4096].into();
                    let mut wb = sb.clone();
                    let cs = decay_scalar(&mut scalar, RowId(3), cell_type, &mut sb, elapsed);
                    let cw = decay(&mut wordwise, RowId(3), cell_type, &mut wb, elapsed);
                    let at = format!("max_ns={} elapsed={elapsed} {cell_type:?}", p.max_ns);
                    assert_eq!(cs, cw, "changed counts diverged at {at}");
                    assert_eq!(sb, wb, "row bytes diverged at {at}");
                }
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
                let mut sb: Rc<[u8]> = vec![0xFFu8; len].into();
                let mut wb = sb.clone();
                let cs = decay_scalar(&mut scalar, RowId(0), CellType::True, &mut sb, elapsed);
                let cw = decay(&mut wordwise, RowId(0), CellType::True, &mut wb, elapsed);
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
                            let mut bytes: Rc<[u8]> = before.clone().into();
                            let changed = decay(&mut m, row, cell_type, &mut bytes, elapsed);
                            let at = format!(
                                "len={len} row={r} elapsed={elapsed} {cell_type:?} fill={fill:#x}"
                            );
                            assert_eq!(&bytes[..], &expected[..], "{at}");
                            assert_eq!(changed, expected_changed, "{at}");
                        }
                    }
                }
            }
        }
        assert!(survivors > 0, "long-cell survivors must be exercised");
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
