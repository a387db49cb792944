//! Deterministic hashing/sampling primitives.
//!
//! The simulator needs *reproducible* randomness keyed on structural
//! coordinates (module seed, row, bit) so that a module's vulnerability map
//! and retention map are fixed properties of the module — exactly like real
//! hardware, where "memory templating" attacks rely on flippable-bit
//! locations being stable across runs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mix.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a tuple of coordinates into a u64.
#[cfg(test)]
pub(crate) fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ a) ^ b)
}

/// Maps a u64 to the unit interval `[0, 1)`.
pub(crate) fn to_unit(x: u64) -> f64 {
    // 53 significant bits, like rand's standard float conversion.
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Counter-mode block generator over one row's cells.
///
/// `hash3(seed, row, bit)` nests three SplitMix finalizers, but the first
/// two depend only on `(seed, row)`. Factoring that *row prefix* out once
/// leaves a single finalizer per cell:
///
/// ```text
/// hash3(seed, row, bit) == splitmix64(prefix ^ bit)
///   where prefix = splitmix64(splitmix64(seed) ^ row)
/// ```
///
/// so the generator derives whole 64-hash blocks — one per engine word of
/// the row — at a third of the scalar mixing cost, while staying *equal*
/// to the per-bit `hash3` reference hash for hash. The wordwise
/// retention-mask builder in `retention.rs` consumes these blocks; the
/// scalar test oracle keeps calling `hash3` directly, which is what the
/// differential suites pin the block consumer against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowBlocks {
    prefix: u64,
}

impl RowBlocks {
    /// Positions the generator on `(seed, row)`.
    pub(crate) fn new(seed: u64, row: u64) -> Self {
        RowBlocks { prefix: splitmix64(splitmix64(seed) ^ row) }
    }

    /// The per-cell hash of `bit`: equals `hash3(seed, row, bit)`.
    #[inline]
    pub(crate) fn cell(&self, bit: u64) -> u64 {
        splitmix64(self.prefix ^ bit)
    }
}

/// Length of the true prefix of a downward-closed predicate over the
/// 53-bit mantissa domain `0..2^53`.
pub(crate) fn mantissa_cutoff(pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 53);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A ChaCha stream deterministically derived from `(seed, stream_id)`.
///
/// Used where we need many draws for one coordinate (e.g. sampling the
/// vulnerable-bit positions of a row) rather than a single hash.
pub(crate) fn stream_rng(seed: u64, stream_id: u64) -> ChaCha8Rng {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..16].copy_from_slice(&stream_id.to_le_bytes());
    key[16..24].copy_from_slice(&splitmix64(seed ^ stream_id).to_le_bytes());
    key[24..32]
        .copy_from_slice(&splitmix64(stream_id.wrapping_mul(31).wrapping_add(seed)).to_le_bytes());
    ChaCha8Rng::from_seed(key)
}

/// Draws a Poisson-distributed sample with mean `lambda` (Knuth for small
/// lambda, normal approximation above 64 to stay O(1)).
pub(crate) fn poisson(rng: &mut ChaCha8Rng, lambda: f64) -> u64 {
    use rand::Rng;
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation with continuity correction.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let v: f64 = rng.gen::<f64>();
        let z = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        let x = lambda + lambda.sqrt() * z + 0.5;
        if x < 0.0 {
            0
        } else {
            x as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
        assert_ne!(hash3(1, 2, 3), hash3(1, 2, 4));
        assert_ne!(hash3(1, 2, 3), hash3(1, 3, 3));
        assert_ne!(hash3(1, 2, 3), hash3(2, 2, 3));
    }

    #[test]
    fn unit_interval_bounds() {
        for x in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let u = to_unit(x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn stream_rng_deterministic() {
        use rand::Rng;
        let a: u64 = stream_rng(7, 9).gen();
        let b: u64 = stream_rng(7, 9).gen();
        let c: u64 = stream_rng(7, 10).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_roughly_correct() {
        let mut rng = stream_rng(42, 0);
        for lambda in [0.5f64, 5.0, 200.0] {
            let n = 4000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.15, "lambda={lambda} mean={mean}");
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = stream_rng(1, 1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn row_blocks_equal_hash3_per_cell() {
        for (seed, row) in [(0u64, 0u64), (0xC0FFEE, 3), (u64::MAX, 12345)] {
            let blocks = RowBlocks::new(seed, row);
            for bit in (0..130).chain([u64::from(u32::MAX), 1 << 20]) {
                assert_eq!(blocks.cell(bit), hash3(seed, row, bit), "seed={seed} bit={bit}");
            }
        }
    }

    #[test]
    fn mantissa_cutoff_is_bit_exact_around_the_boundary() {
        let unit_cutoff = |p: f64| mantissa_cutoff(|x| to_unit(x << 11) < p);
        for p in [0.0, 1e-9, 1e-4, 0.002, 0.05, 0.4, 0.999, 1.0, 1.5] {
            let cutoff = unit_cutoff(p);
            // The float predicate and the integer predicate agree on hashes
            // straddling the cutoff (and on extremes).
            for x in [0u64, cutoff.saturating_sub(2), cutoff.saturating_sub(1), cutoff]
                .into_iter()
                .chain([cutoff + 1, (1 << 53) - 1].into_iter().filter(|x| *x < (1 << 53)))
            {
                let h = x << 11;
                assert_eq!(to_unit(h) < p, h >> 11 < cutoff, "p={p} x={x}");
            }
        }
        assert_eq!(unit_cutoff(0.0), 0);
        assert_eq!(unit_cutoff(1.0), 1 << 53);
    }
}
