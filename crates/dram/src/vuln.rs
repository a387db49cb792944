use std::fmt;
use std::rc::Rc;

use rand::{Rng, RngCore};

use crate::bounded::RowMapCache;
use crate::cells::{CellLayout, CellType};
use crate::config::DisturbanceParams;
use crate::geometry::{DramGeometry, RowId};
use crate::rng::{mantissa_cutoff, poisson, stream_rng, to_unit};

/// Default capacity (in rows) of the per-row model caches. Generous enough
/// that every workload in the repo runs eviction-free, small enough that a
/// templating sweep over an arbitrarily large module stays O(capacity).
pub(crate) const MODEL_CACHE_ROWS: usize = 4096;

/// Seed salt of the vulnerability map ("VULN"): keys the per-row stream.
const VULN_SALT: u64 = 0x5655_4C4E;

/// Direction of a disturbance-induced bit flip, in logic-value terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipDirection {
    /// A stored `1` becomes `0` (the leakage direction of true-cells).
    OneToZero,
    /// A stored `0` becomes `1` (the leakage direction of anti-cells).
    ZeroToOne,
}

impl FlipDirection {
    /// The leakage-aligned ("primary") flip direction of a cell type.
    pub fn primary_for(cell: CellType) -> FlipDirection {
        match cell {
            CellType::True => FlipDirection::OneToZero,
            CellType::Anti => FlipDirection::ZeroToOne,
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> FlipDirection {
        match self {
            FlipDirection::OneToZero => FlipDirection::ZeroToOne,
            FlipDirection::ZeroToOne => FlipDirection::OneToZero,
        }
    }

    /// The stored logic value this flip fires on.
    pub fn source_value(self) -> bool {
        matches!(self, FlipDirection::OneToZero)
    }
}

impl fmt::Display for FlipDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlipDirection::OneToZero => f.write_str("1→0"),
            FlipDirection::ZeroToOne => f.write_str("0→1"),
        }
    }
}

/// One cell of a row that is vulnerable to RowHammer disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VulnerableBit {
    /// Bit index within the row (0 = LSB of byte 0).
    pub bit: u64,
    /// The only direction this cell can flip when disturbed.
    pub direction: FlipDirection,
}

/// One active word of a row's vulnerability map: the `1→0` and `0→1`
/// masks for row bits `[64·word, 64·word + 64)`.
///
/// A row's map is stored as the ascending list of words where either mask
/// is non-zero rather than as dense bitplanes. That skips untouched words
/// only on sparse maps: at `pf = 0.05` about 491 of a 4 KiB row's 512
/// words are in the list, so the disturb loop's cost is the list length,
/// and a repeat disturbance of an unchanged row skips the pass altogether
/// (see `DramModule::disturb`). The masks are disjoint (a cell flips in
/// one direction only), and no mask bit lies at or past the row's last
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlaneWord {
    /// Word index within the row (bit `b` of the masks is row bit
    /// `64·word + b`).
    pub(crate) word: u32,
    /// Cells that can flip `1→0`.
    pub(crate) otz: u64,
    /// Cells that can flip `0→1`.
    pub(crate) zto: u64,
}

/// The fixed vulnerability map of a module.
///
/// Which cells are flippable — and in which direction — is a *manufacturing
/// property* of a DRAM module: stable across reboots, discoverable by
/// "memory templating" (Drammer), and keyed here on the module seed so that
/// experiments are reproducible. Maps are generated lazily per row, as
/// `u64` bitplanes, and memoized. Clones of a model (a module's
/// forks and journal snapshots) account their cached rows separately but
/// share the built maps, which are pure functions of (seed, params,
/// layout, row).
///
/// Per the measured statistics the model is parameterized on
/// ([`DisturbanceParams`]): each cell is vulnerable with probability `pf`,
/// and a vulnerable cell flips in its polarity's leakage direction except
/// with probability `reverse_rate` (section 5: `P0→1 = 0.2%` in true-cells).
#[derive(Clone)]
pub struct VulnerabilityModel {
    seed: u64,
    params: DisturbanceParams,
    layout: CellLayout,
    bits_per_row: u64,
    /// Integer form of the reverse-direction draw: a draw `x` reverses iff
    /// `x >> 11 < reverse_cutoff`, bit for bit `to_unit(x) < reverse_rate`.
    reverse_cutoff: u64,
    planes: RowMapCache<u64, PlaneWord>,
}

impl fmt::Debug for VulnerabilityModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VulnerabilityModel")
            .field("seed", &self.seed)
            .field("params", &self.params)
            .field("bits_per_row", &self.bits_per_row)
            .field("cached_rows", &self.planes.len())
            .finish()
    }
}

impl VulnerabilityModel {
    /// Creates the model for a module.
    pub fn new(
        geometry: &DramGeometry,
        layout: CellLayout,
        params: DisturbanceParams,
        seed: u64,
    ) -> Self {
        VulnerabilityModel {
            seed,
            params,
            layout,
            bits_per_row: geometry.bits_per_row(),
            reverse_cutoff: mantissa_cutoff(|m| to_unit(m << 11) < params.reverse_rate),
            planes: RowMapCache::new(MODEL_CACHE_ROWS),
        }
    }

    /// The disturbance parameters the model was built with.
    pub fn params(&self) -> DisturbanceParams {
        self.params
    }

    /// The vulnerable bits of `row`, sorted by bit index.
    ///
    /// Decoded from the row's memoized bitplane map on every call; the
    /// list itself is not memoized.
    pub fn vulnerable_bits(&mut self, row: RowId) -> Vec<VulnerableBit> {
        let mut bits = Vec::new();
        for pw in self.planes(row).iter() {
            let mut mask = pw.otz | pw.zto;
            while mask != 0 {
                let b = mask.trailing_zeros();
                mask &= mask - 1;
                let direction = if pw.otz >> b & 1 == 1 {
                    FlipDirection::OneToZero
                } else {
                    FlipDirection::ZeroToOne
                };
                bits.push(VulnerableBit { bit: 64 * u64::from(pw.word) + u64::from(b), direction });
            }
        }
        bits
    }

    /// The bitplane map of `row`, generated on first use and memoized.
    pub(crate) fn planes(&mut self, row: RowId) -> Rc<[PlaneWord]> {
        if let Some(planes) = self.planes.get(&row.0) {
            return planes;
        }
        let (planes, bits) = self.generate_row(row);
        // Weighed as the sorted bit list the map encodes, so the
        // `vuln_cache_bytes` gauge and byte-budget eviction count model
        // content, not the representation.
        let weight = bits * std::mem::size_of::<VulnerableBit>();
        self.planes.insert(row.0, Rc::clone(&planes), weight);
        planes
    }

    /// Rows currently memoized.
    pub(crate) fn cached_rows(&self) -> usize {
        self.planes.len()
    }

    /// Rows the map cache evicted since creation.
    pub(crate) fn evictions(&self) -> u64 {
        self.planes.evictions()
    }

    /// Payload bytes the shared map store retains.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.planes.stored_bytes()
    }

    /// Payload bytes the map accounting holds — the model content mirrored
    /// into the `vuln_cache_bytes` gauge.
    pub(crate) fn map_bytes(&self) -> usize {
        self.planes.held_bytes()
    }

    /// Rebounds the map cache to `rows` entries.
    pub(crate) fn set_cache_capacity(&mut self, rows: usize) {
        self.planes.set_capacity(rows);
    }

    /// Sets or clears the payload-byte budget of the map cache.
    pub(crate) fn set_cache_bytes(&mut self, budget: Option<usize>) {
        self.planes.set_byte_budget(budget);
    }

    /// Derives `row`'s map and its vulnerable-bit count: Poisson count +
    /// position / direction draws from a per-row ChaCha stream. O(pf ·
    /// bits) draws plus O(bits / 64) words.
    ///
    /// The draws are scattered into two row bitmaps (drawn, reversed) and
    /// emitted word by word, so the map comes out ascending without a
    /// sort. A bit drawn twice keeps its first draw's direction — what a
    /// stable sort by bit plus dedup keeps. The reverse draw is the same
    /// `u64` a `gen::<f64>() < reverse_rate` test consumes, compared
    /// against its precomputed mantissa cutoff.
    fn generate_row(&self, row: RowId) -> (Rc<[PlaneWord]>, usize) {
        let mut rng = stream_rng(self.seed ^ VULN_SALT, row.0);
        let lambda = self.bits_per_row as f64 * self.params.pf;
        let n = poisson(&mut rng, lambda);
        // Per word: the drawn bits and, among them, the reversed ones.
        let mut map = vec![[0u64; 2]; self.bits_per_row.div_ceil(64) as usize];
        let mut bits = 0usize;
        for _ in 0..n {
            let bit = rng.gen_range(0..self.bits_per_row);
            let reverse = rng.next_u64() >> 11 < self.reverse_cutoff;
            let ([drawn, reversed], mask) = (&mut map[(bit / 64) as usize], 1u64 << (bit % 64));
            if *drawn & mask == 0 {
                *drawn |= mask;
                *reversed |= mask * u64::from(reverse);
                bits += 1;
            }
        }
        // One `PlaneWord` per word with a drawn bit, ascending. Counted
        // first, so the map is collected straight into its final
        // allocation from an iterator of known length.
        let true_cells = self.layout.cell_type(row) == CellType::True;
        let mut live = map.iter().enumerate().filter(|(_, [drawn, _])| *drawn != 0);
        let words = live.clone().count();
        let planes = (0..words).map(|_| {
            let (w, &[drawn, reversed]) = live.next().expect("counted above");
            let (primary, opposite) = (drawn & !reversed, drawn & reversed);
            let (otz, zto) = if true_cells { (primary, opposite) } else { (opposite, primary) };
            PlaneWord { word: w as u32, otz, zto }
        });
        (planes.collect(), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::AddressMapping;

    fn model(pf: f64, layout: CellLayout) -> VulnerabilityModel {
        let g = DramGeometry::new(128 * 1024, 64, 1, AddressMapping::RowLinear);
        let params = DisturbanceParams { pf, ..DisturbanceParams::default() };
        VulnerabilityModel::new(&g, layout, params, 0xABCD)
    }

    #[test]
    fn deterministic_per_row() {
        let mut m1 = model(1e-4, CellLayout::AllTrue);
        let mut m2 = model(1e-4, CellLayout::AllTrue);
        assert_eq!(&*m1.vulnerable_bits(RowId(7)), &*m2.vulnerable_bits(RowId(7)));
    }

    #[test]
    fn different_rows_differ() {
        let mut m = model(1e-3, CellLayout::AllTrue);
        assert_ne!(&*m.vulnerable_bits(RowId(1)), &*m.vulnerable_bits(RowId(2)));
    }

    #[test]
    fn density_tracks_pf() {
        let mut m = model(1e-4, CellLayout::AllTrue);
        let bits_per_row = 128 * 1024 * 8;
        let total: usize = (0..64).map(|r| m.vulnerable_bits(RowId(r)).len()).sum();
        let expected = 64.0 * bits_per_row as f64 * 1e-4;
        let observed = total as f64;
        assert!(
            (observed - expected).abs() < expected * 0.25,
            "expected≈{expected} observed={observed}"
        );
    }

    #[test]
    fn true_cell_rows_mostly_flip_one_to_zero() {
        let mut m = model(1e-3, CellLayout::AllTrue);
        let mut primary = 0usize;
        let mut reverse = 0usize;
        for r in 0..64 {
            for b in m.vulnerable_bits(RowId(r)).iter() {
                match b.direction {
                    FlipDirection::OneToZero => primary += 1,
                    FlipDirection::ZeroToOne => reverse += 1,
                }
            }
        }
        assert!(primary > 0);
        let frac = reverse as f64 / (primary + reverse) as f64;
        assert!(frac < 0.02, "reverse fraction {frac} should be near 0.002");
    }

    #[test]
    fn anti_cell_rows_mostly_flip_zero_to_one() {
        let mut m = model(1e-3, CellLayout::AllAnti);
        let mut zto = 0usize;
        let mut otz = 0usize;
        for r in 0..64 {
            for b in m.vulnerable_bits(RowId(r)).iter() {
                match b.direction {
                    FlipDirection::ZeroToOne => zto += 1,
                    FlipDirection::OneToZero => otz += 1,
                }
            }
        }
        assert!(zto > otz * 10);
    }

    #[test]
    fn bits_sorted_and_unique() {
        let mut m = model(1e-3, CellLayout::AllTrue);
        let bits = m.vulnerable_bits(RowId(0));
        for w in bits.windows(2) {
            assert!(w[0].bit < w[1].bit);
        }
    }

    #[test]
    fn planes_are_ascending_non_zero_disjoint_and_in_row() {
        let params = DisturbanceParams { pf: 0.4, reverse_rate: 0.3, ..Default::default() };
        let mut tail_words = 0;
        // Rows under 8 bytes end in a ragged word with fewer than 64 bits.
        for row_bytes in [1u64, 2, 4, 8, 256] {
            let g = DramGeometry::new(row_bytes, 64, 1, AddressMapping::RowLinear);
            let bits_per_row = g.bits_per_row();
            for layout in [CellLayout::AllTrue, CellLayout::AllAnti] {
                let mut m = VulnerabilityModel::new(&g, layout, params, 0xABCD);
                for r in 0..64 {
                    let planes = m.planes(RowId(r));
                    for w in planes.windows(2) {
                        assert!(w[0].word < w[1].word, "{row_bytes} B row {r}: words ascend");
                    }
                    for pw in planes.iter() {
                        let live = pw.otz | pw.zto;
                        assert_ne!(live, 0, "{row_bytes} B row {r}: word {} is empty", pw.word);
                        assert_eq!(pw.otz & pw.zto, 0, "{row_bytes} B row {r}: one direction");
                        assert!(u64::from(pw.word) < bits_per_row.div_ceil(64));
                        if u64::from(pw.word) == bits_per_row / 64 {
                            tail_words += 1;
                            assert_eq!(live >> (bits_per_row % 64), 0, "{row_bytes} B row {r}");
                        }
                    }
                }
            }
        }
        assert!(tail_words > 0, "the ragged tail word must be exercised");
    }

    #[test]
    fn planes_are_memoized_and_bounded() {
        let mut m = model(1e-3, CellLayout::AllTrue);
        m.set_cache_capacity(4);
        for r in 0..16 {
            let first = m.planes(RowId(r));
            assert!(Rc::ptr_eq(&first, &m.planes(RowId(r))), "row {r} is memoized");
        }
        assert_eq!(m.cached_rows(), 4);
        assert_eq!(m.evictions(), 12, "one eviction per evicted row");
    }

    /// The raw stream draws of `row`, in stream order: each cell's bit and
    /// the `[0, 1)` value of its reverse draw.
    fn stream_draws(m: &VulnerabilityModel, row: RowId) -> Vec<(u64, f64)> {
        let mut rng = stream_rng(m.seed ^ VULN_SALT, row.0);
        let n = poisson(&mut rng, m.bits_per_row as f64 * m.params.pf);
        (0..n).map(|_| (rng.gen_range(0..m.bits_per_row), rng.gen::<f64>())).collect()
    }

    /// Checks `row`'s decoded map against the sort + dedup oracle over its
    /// stream draws, whose reverse test is the float `u < reverse_rate`.
    /// Returns how many duplicate draws disagreed on direction.
    fn check_against_oracle(m: &mut VulnerabilityModel, row: RowId, at: &str) -> usize {
        let primary = FlipDirection::primary_for(m.layout.cell_type(row));
        let mut oracle: Vec<VulnerableBit> = stream_draws(m, row)
            .into_iter()
            .map(|(bit, u)| {
                let reverse = u < m.params.reverse_rate;
                VulnerableBit { bit, direction: if reverse { primary.opposite() } else { primary } }
            })
            .collect();
        oracle.sort_by_key(|b| b.bit);
        let conflicting = oracle
            .windows(2)
            .filter(|w| w[0].bit == w[1].bit && w[0].direction != w[1].direction)
            .count();
        oracle.dedup_by_key(|b| b.bit);
        assert_eq!(m.vulnerable_bits(row), oracle, "{at} row={}", row.0);
        conflicting
    }

    #[test]
    fn stream_bitmap_builder_matches_sort_dedup_oracle() {
        let mut conflicting_duplicates = 0usize;
        for row_bytes in [1u64, 2, 8, 256, 4096] {
            let g = DramGeometry::new(row_bytes, 64, 1, AddressMapping::RowLinear);
            for pf in [1e-4, 0.05, 0.4] {
                let params = DisturbanceParams { pf, reverse_rate: 0.3, ..Default::default() };
                for layout in [CellLayout::AllTrue, CellLayout::AllAnti] {
                    for seed in [0xABCD, 1, 0x5EED, u64::MAX] {
                        let mut m = VulnerabilityModel::new(&g, layout, params, seed);
                        let at = format!("row_bytes={row_bytes} pf={pf} {layout:?} seed={seed:#x}");
                        for r in 0..64 {
                            conflicting_duplicates += check_against_oracle(&mut m, RowId(r), &at);
                        }
                    }
                }
            }
        }
        assert!(conflicting_duplicates > 0, "first-draw-wins must be exercised");

        // The integer reverse cutoff against the float test at the extreme
        // rates, and at rates that sit exactly on a mantissa boundary,
        // each equal to a reverse draw the stream really makes: `u < rate`
        // is false there, and an off-by-one cutoff would reverse that cell.
        let g = DramGeometry::new(256, 64, 1, AddressMapping::RowLinear);
        let base = DisturbanceParams { pf: 0.05, ..Default::default() };
        let probe = VulnerabilityModel::new(&g, CellLayout::AllTrue, base, 0x5EED);
        let on_draws: Vec<f64> =
            (0..4).map(|r| stream_draws(&probe, RowId(r))[r as usize].1).collect();
        let mut boundary_hits = 0usize;
        for reverse_rate in [0.0, 1.0, 0.3].into_iter().chain(on_draws.iter().copied()) {
            let params = DisturbanceParams { reverse_rate, ..base };
            for layout in [CellLayout::AllTrue, CellLayout::AllAnti] {
                let mut m = VulnerabilityModel::new(&g, layout, params, 0x5EED);
                for r in 0..8 {
                    let draws = stream_draws(&m, RowId(r));
                    boundary_hits += draws.iter().filter(|d| d.1 == reverse_rate).count();
                    check_against_oracle(&mut m, RowId(r), &format!("rate={reverse_rate}"));
                }
            }
        }
        assert!(boundary_hits >= 8, "draws landing on the cutoff must be exercised");
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(FlipDirection::primary_for(CellType::True), FlipDirection::OneToZero);
        assert_eq!(FlipDirection::primary_for(CellType::Anti), FlipDirection::ZeroToOne);
        assert_eq!(FlipDirection::OneToZero.opposite(), FlipDirection::ZeroToOne);
        assert!(FlipDirection::OneToZero.source_value());
        assert!(!FlipDirection::ZeroToOne.source_value());
    }
}
