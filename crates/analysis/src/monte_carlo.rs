//! Monte Carlo cross-validation of the exploitable-PTE model.
//!
//! Independent generative model: each of the `n` indicator bits of a PTE
//! location is vulnerable with probability `Pf`; a vulnerable bit is a
//! `0→1` flipper with probability `P0→1`, else a `1→0` flipper. The
//! location is exploitable iff the attacker can supply a legal pointer
//! whose corruption reaches all-ones:
//!
//! - every `1→0` flipper poisons the location (a supplied `1` decays, a
//!   supplied `0` never rises), so there must be none;
//! - at least [`Restriction::min_flips`] `0→1` flippers must exist (the
//!   attacker-supplied address must carry that many `0`s).
//!
//! This set-based model is derived independently of the paper's binomial
//! sum; agreement between the two (see tests) validates both.

use std::convert::Infallible;

use rand::RngCore;
use rand_chacha::ChaCha8Rng;

#[cfg(test)]
use rand::Rng;

#[cfg(test)]
use crate::exploit::p_exploitable;
use crate::exploit::Restriction;
use crate::params::FlipStats;

/// Result of a Monte Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Estimated probability a location is exploitable.
    pub p_hat: f64,
    /// Number of locations sampled.
    pub samples: u64,
    /// Number of exploitable locations observed.
    pub hits: u64,
}

impl MonteCarloResult {
    /// Approximate standard error of `p_hat`.
    pub fn std_error(&self) -> f64 {
        (self.p_hat * (1.0 - self.p_hat) / self.samples as f64).sqrt()
    }
}

/// Exact integer threshold for a unit-interval comparison: the number of
/// 53-bit mantissa values `m` whose image `m · 2⁻⁵³` (exactly how the
/// generator maps `next_u64() >> 11` to `f64`) compares `< p`. Found by
/// binary search with the genuine `f64` predicate, so by monotonicity
/// `(next_u64() >> 11) < unit_cutoff(p)` decides precisely the same
/// outcomes as `rng.gen::<f64>() < p` — the per-draw float conversion
/// and FP compare collapse to one integer compare without changing a
/// single verdict.
fn unit_cutoff(p: f64) -> u64 {
    const ONE: u64 = 1 << 53;
    let scale = 1.0 / ONE as f64;
    let (mut lo, mut hi) = (0u64, ONE);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (mid as f64) * scale < p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One shard's worth of sampling: counts exploitable locations among
/// `samples` draws from the stream seeded by `seed`. This is the single
/// sampling loop shared by the serial and sharded entry points — both
/// produce their hits through exactly this code.
///
/// The two per-bit probabilities are hoisted into integer cutoffs (see
/// [`unit_cutoff`]); the draw sequence — one `next_u64` per bit plus one
/// per vulnerable bit — is identical to the float reference, so every
/// recorded `hits` value is preserved bit for bit (pinned by the
/// `integer_thresholds_match_float_reference` test).
fn count_hits(n: u32, stats: &FlipStats, restriction: Restriction, samples: u64, seed: u64) -> u64 {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pf_cutoff = unit_cutoff(stats.pf);
    let up_cutoff = unit_cutoff(stats.p0_to_1);
    let min_flips = restriction.min_flips();
    let mut hits = 0u64;
    for _ in 0..samples {
        let mut up_flippers = 0u32;
        let mut down_flippers = 0u32;
        for _ in 0..n {
            if rng.next_u64() >> 11 < pf_cutoff {
                if rng.next_u64() >> 11 < up_cutoff {
                    up_flippers += 1;
                } else {
                    down_flippers += 1;
                }
            }
        }
        if down_flippers == 0 && up_flippers >= min_flips {
            hits += 1;
        }
    }
    hits
}

/// The original float-comparison sampling loop, kept as the differential
/// reference for [`count_hits`].
#[cfg(test)]
fn count_hits_float_reference(
    n: u32,
    stats: &FlipStats,
    restriction: Restriction,
    samples: u64,
    seed: u64,
) -> u64 {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut hits = 0u64;
    for _ in 0..samples {
        let mut up_flippers = 0u32;
        let mut down_flippers = 0u32;
        for _ in 0..n {
            if rng.gen::<f64>() < stats.pf {
                if rng.gen::<f64>() < stats.p0_to_1 {
                    up_flippers += 1;
                } else {
                    down_flippers += 1;
                }
            }
        }
        if down_flippers == 0 && up_flippers >= restriction.min_flips() {
            hits += 1;
        }
    }
    hits
}

/// Estimates the exploitable-location probability by sampling `samples`
/// locations with indicator width `n`.
pub fn monte_carlo_p_exploitable(
    n: u32,
    stats: &FlipStats,
    restriction: Restriction,
    samples: u64,
    seed: u64,
) -> MonteCarloResult {
    let hits = count_hits(n, stats, restriction, samples, seed);
    MonteCarloResult { p_hat: hits as f64 / samples as f64, samples, hits }
}

/// Sharded Monte Carlo estimation: splits `samples` across `shards`
/// independent streams and runs them on scoped worker threads.
///
/// Determinism contract (see `cta_parallel`):
///
/// - the result is a pure function of `(n, stats, restriction, samples,
///   seed, shards)` — thread scheduling never changes `hits` or `p_hat`,
///   because shard results merge in shard order;
/// - `shards == 1` reproduces [`monte_carlo_p_exploitable`] **bit for
///   bit**: shard 0's seed is the campaign seed itself and it samples the
///   whole budget through the same loop;
/// - shard `i > 0` draws [`cta_parallel::shard_sizes`]`[i]` samples from
///   the stream seeded with [`cta_parallel::shard_seed`]`(seed, i)`.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn monte_carlo_p_exploitable_sharded(
    n: u32,
    stats: &FlipStats,
    restriction: Restriction,
    samples: u64,
    seed: u64,
    shards: u32,
) -> MonteCarloResult {
    assert!(shards > 0, "need at least one shard");
    let sizes = cta_parallel::shard_sizes(samples, shards);
    let shard_hits = cta_parallel::try_parallel_map(
        shards as usize,
        shards as usize,
        || (),
        |_, i| {
            let shard_seed = cta_parallel::shard_seed(seed, i as u32);
            Ok::<_, Infallible>(count_hits(n, stats, restriction, sizes[i], shard_seed))
        },
    )
    .unwrap_or_else(|never| match never {});
    // Merge in shard order. Integer addition is order-independent, but the
    // fixed order is the contract every merged statistic must follow.
    let hits: u64 = shard_hits.iter().sum();
    MonteCarloResult { p_hat: hits as f64 / samples as f64, samples, hits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_closed_form_for_anti_cell_stats() {
        // Use inverted (anti-cell) statistics where P is large enough to
        // estimate cheaply: P ≈ 8e-4 at n=8.
        let stats = FlipStats::paper_default().inverted();
        let analytic = p_exploitable(8, &stats, Restriction::None);
        let mc = monte_carlo_p_exploitable(8, &stats, Restriction::None, 2_000_000, 42);
        let diff = (mc.p_hat - analytic).abs();
        assert!(
            diff < 4.0 * mc.std_error().max(1e-6),
            "mc={:.3e} analytic={analytic:.3e} se={:.1e}",
            mc.p_hat,
            mc.std_error()
        );
    }

    #[test]
    fn agrees_with_closed_form_for_scaled_true_cell_stats() {
        // Scale Pf up so the true-cell probability is measurable, keeping
        // the direction split: the agreement is structural, not accidental.
        let stats = FlipStats { pf: 0.05, p0_to_1: 0.2, p1_to_0: 0.8 };
        let analytic = p_exploitable(8, &stats, Restriction::None);
        let mc = monte_carlo_p_exploitable(8, &stats, Restriction::None, 500_000, 7);
        let rel = (mc.p_hat - analytic).abs() / analytic;
        assert!(rel < 0.1, "mc={:.4e} analytic={analytic:.4e}", mc.p_hat);
    }

    #[test]
    fn restriction_suppresses_hits() {
        let stats = FlipStats { pf: 0.05, p0_to_1: 0.5, p1_to_0: 0.5 };
        let none = monte_carlo_p_exploitable(8, &stats, Restriction::None, 200_000, 1);
        let two = monte_carlo_p_exploitable(8, &stats, Restriction::AtLeastTwoZeros, 200_000, 1);
        assert!(two.p_hat < none.p_hat);
    }

    #[test]
    fn integer_thresholds_match_float_reference() {
        // The batched integer loop must reproduce the float loop's hits
        // exactly — same draws, same verdicts — across seeds, restriction
        // modes, and probabilities including edge values 0.0 and 1.0.
        let cases = [
            FlipStats { pf: 0.05, p0_to_1: 0.2, p1_to_0: 0.8 },
            FlipStats::paper_default().inverted(),
            FlipStats { pf: 0.0, p0_to_1: 0.5, p1_to_0: 0.5 },
            FlipStats { pf: 1.0, p0_to_1: 1.0, p1_to_0: 0.0 },
        ];
        for stats in &cases {
            for seed in [0u64, 9, 0xC0FFEE] {
                for restriction in [Restriction::None, Restriction::AtLeastTwoZeros] {
                    assert_eq!(
                        count_hits(8, stats, restriction, 20_000, seed),
                        count_hits_float_reference(8, stats, restriction, 20_000, seed),
                        "stats={stats:?} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_cutoff_is_bit_exact_around_the_boundary() {
        // For every mantissa value near the cutoff, the integer compare and
        // the genuine float compare must agree.
        let scale = 1.0 / (1u64 << 53) as f64;
        for p in [0.0, 1e-4, 0.002, 0.05, 0.5, 0.999, 1.0] {
            let c = unit_cutoff(p);
            for m in c.saturating_sub(2)..=(c + 2).min(1 << 53) {
                assert_eq!(m < c, (m as f64) * scale < p, "p={p} m={m}");
            }
        }
        assert_eq!(unit_cutoff(0.0), 0);
        assert_eq!(unit_cutoff(1.0), 1 << 53);
    }

    #[test]
    fn serial_draw_order_is_pinned() {
        // The serial sampler's hit count at a fixed seed: any change to the
        // draw order (or to the integer thresholds) moves it.
        let stats = FlipStats { pf: 1e-3, p0_to_1: 0.3, p1_to_0: 0.7 };
        let mc = monte_carlo_p_exploitable(8, &stats, Restriction::None, 400_000, 7);
        assert_eq!(mc.hits, 936);
    }

    #[test]
    fn deterministic_per_seed() {
        let stats = FlipStats::paper_default().inverted();
        let a = monte_carlo_p_exploitable(8, &stats, Restriction::None, 10_000, 9);
        let b = monte_carlo_p_exploitable(8, &stats, Restriction::None, 10_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn one_shard_is_bit_identical_to_serial() {
        let stats = FlipStats { pf: 0.05, p0_to_1: 0.2, p1_to_0: 0.8 };
        for seed in [0u64, 9, 0xC0FFEE] {
            let serial = monte_carlo_p_exploitable(8, &stats, Restriction::None, 50_000, seed);
            let one =
                monte_carlo_p_exploitable_sharded(8, &stats, Restriction::None, 50_000, seed, 1);
            assert_eq!(serial, one, "seed {seed}");
        }
    }

    #[test]
    fn sharded_result_depends_only_on_shard_count() {
        // Same (seed, shards) twice: identical. The scheduling of the
        // scoped workers differs between runs; the merge order does not.
        let stats = FlipStats { pf: 0.05, p0_to_1: 0.3, p1_to_0: 0.7 };
        let a = monte_carlo_p_exploitable_sharded(8, &stats, Restriction::None, 100_000, 11, 4);
        let b = monte_carlo_p_exploitable_sharded(8, &stats, Restriction::None, 100_000, 11, 4);
        assert_eq!(a, b);
        assert_eq!(a.samples, 100_000);
    }

    #[test]
    fn sharded_estimate_agrees_statistically_with_serial() {
        // Different shard counts sample different streams, so hits differ —
        // but the estimates must agree within Monte Carlo error.
        let stats = FlipStats { pf: 0.05, p0_to_1: 0.2, p1_to_0: 0.8 };
        let serial = monte_carlo_p_exploitable(8, &stats, Restriction::None, 400_000, 5);
        let sharded =
            monte_carlo_p_exploitable_sharded(8, &stats, Restriction::None, 400_000, 5, 8);
        let tol = 5.0 * serial.std_error().max(sharded.std_error());
        assert!(
            (serial.p_hat - sharded.p_hat).abs() < tol,
            "serial={:.4e} sharded={:.4e} tol={tol:.1e}",
            serial.p_hat,
            sharded.p_hat
        );
    }

    #[test]
    fn std_error_shrinks_with_samples() {
        let stats = FlipStats::paper_default().inverted();
        let small = monte_carlo_p_exploitable(8, &stats, Restriction::None, 50_000, 3);
        let large = monte_carlo_p_exploitable(8, &stats, Restriction::None, 1_000_000, 3);
        if small.hits > 0 && large.hits > 0 {
            assert!(large.std_error() < small.std_error());
        }
    }
}
