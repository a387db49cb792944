//! Deterministic parallel execution across independent seeded trials.
//!
//! The simulator's shared state (`DramModule`, kernels, page tables)
//! stays single-threaded by design — determinism there comes from
//! a single totally-ordered event stream. The experiment drivers, though,
//! are embarrassingly parallel *across trials*: Monte Carlo shards, Table 4
//! benchmark×repetition cells, and attack campaigns across seeds are
//! independent by construction, each owning its own RNG stream and (where
//! needed) its own simulated machine.
//!
//! This crate provides the execution layer those drivers share, built on
//! three rules that together make parallel results **bit-identical** to
//! serial ones:
//!
//! 1. **Work is indexed.** Every trial has a fixed index;
//!    [`try_parallel_map`] returns results in index order no matter which
//!    worker ran what when.
//! 2. **Seeds derive from `(seed, index)`.** [`shard_seed`] gives shard 0
//!    the campaign seed *unchanged* (so a one-shard run reproduces the
//!    serial implementation's stream exactly) and SplitMix64-mixes the
//!    others.
//! 3. **Reduction happens in index order** on the caller's thread, so
//!    non-associative float accumulation matches the serial loop.
//!
//! `threads <= 1` always takes the in-place serial path — same call order,
//! same allocations, same results — which is the documented way to
//! reproduce today's single-threaded output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested worker count: `0` means "one per available core".
///
/// Any non-zero request is honored as-is (oversubscription is the
/// caller's business; determinism never depends on the count).
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Derives the RNG seed for shard `index` of a campaign seeded with
/// `seed`.
///
/// Shard 0 receives `seed` itself, which is what makes a `shards = 1` run
/// reproduce the pre-sharding serial implementation bit-for-bit. Other
/// shards get an avalanche mix (SplitMix64 over `seed ^ golden·index`) so
/// neighboring indices land in unrelated parts of the seed space.
pub fn shard_seed(seed: u64, index: u32) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `total` items across `shards` as evenly as possible: the first
/// `total % shards` shards take one extra. The split depends only on
/// `(total, shards)`, never on scheduling.
pub fn shard_sizes(total: u64, shards: u32) -> Vec<u64> {
    assert!(shards > 0, "need at least one shard");
    let shards64 = shards as u64;
    let base = total / shards64;
    let extra = total % shards64;
    (0..shards64).map(|i| base + u64::from(i < extra)).collect()
}

/// Runs `f(0..n)` across up to `threads` scoped workers and returns the
/// results **in index order**, with **cooperative early-cancel**: once any
/// job fails, queued jobs at *higher* indices are skipped instead of run to
/// completion, and the lowest-index error is returned. Infallible work
/// returns `Result<T, Infallible>`.
///
/// Workers pull indices from a shared atomic counter, so scheduling is
/// nondeterministic — but each index's result lands in its own slot and
/// the returned `Vec` is assembled in index order, making the output
/// independent of interleaving. With `threads <= 1` (or `n <= 1`) the
/// whole map runs serially on the calling thread: the exact serial path.
///
/// Error selection is deterministic: a failing index is only ever
/// skipped when a strictly lower failing index has already been recorded,
/// so the returned error is the same lowest-index error a run-everything
/// implementation would pick — independent of worker count or scheduling.
/// Only the *wasted work after a failure* changes. The serial path
/// (`threads <= 1`) short-circuits at the first error, which is the same
/// error by construction (indices run in order).
///
/// Each worker first builds its own state with `init` and hands it to
/// every job it runs (the `map_init` idiom): a worker-local cache, such as
/// a pool of booted machines, that never crosses threads — `init` runs on
/// the worker, so the state need not be `Send`. Results must not depend on
/// which worker's state served a job. Stateless callers pass `|| ()`.
///
/// # Errors
///
/// The lowest-index job error, if any job failed.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads
/// first), and panics if a result slot is somehow left unfilled — both
/// indicate bugs in `f`, not in scheduling.
pub fn try_parallel_map<S, T, E, I, F>(n: usize, threads: usize, init: I, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T, E> + Sync,
{
    let threads = worker_count(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(f(&mut state, i)?);
        }
        return Ok(out);
    }

    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Lowest failing index seen so far; `usize::MAX` = no failure. Workers
    // consult it before starting a job: an index above the watermark can
    // never win error selection and its success would be discarded anyway.
    let first_err = AtomicUsize::new(usize::MAX);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if i > first_err.load(Ordering::Acquire) {
                        continue;
                    }
                    let value = f(&mut state, i);
                    if value.is_err() {
                        first_err.fetch_min(i, Ordering::AcqRel);
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                }
            });
        }
    });
    let cutoff = first_err.load(Ordering::Acquire);
    if cutoff == usize::MAX {
        return Ok(slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .unwrap_or_else(|| panic!("slot {i} unfilled"))
                    .unwrap_or_else(|_| panic!("slot {i} failed without raising the watermark"))
            })
            .collect());
    }
    match slots
        .into_iter()
        .nth(cutoff)
        .expect("watermark within bounds")
        .into_inner()
        .expect("result slot poisoned")
    {
        Some(Err(e)) => Err(e),
        _ => panic!("slot {cutoff} does not hold the recorded error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// `try_parallel_map` over infallible, stateless work.
    fn map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        try_parallel_map(n, threads, || (), |_, i| Ok::<_, Infallible>(f(i)))
            .unwrap_or_else(|never| match never {})
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = map(100, 1, |i| i * i);
        let parallel = map(100, 8, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn order_is_by_index_not_completion() {
        // Make early indices slow: completion order inverts index order.
        let out = map(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn shard_sizes_cover_total_exactly() {
        for total in [0u64, 1, 7, 100, 101, 1023] {
            for shards in [1u32, 2, 3, 7, 16] {
                let sizes = shard_sizes(total, shards);
                assert_eq!(sizes.len(), shards as usize);
                assert_eq!(sizes.iter().sum::<u64>(), total);
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_zero_preserves_seed() {
        for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
            assert_eq!(shard_seed(seed, 0), seed);
        }
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|i| shard_seed(0xBEEF, i)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let out: Result<Vec<u32>, usize> =
            try_parallel_map(10, 4, || (), |_, i| if i % 3 == 2 { Err(i) } else { Ok(i as u32) });
        assert_eq!(out, Err(2));
    }

    #[test]
    fn try_map_cancels_queued_work_after_failure() {
        // Index 0 fails immediately; every other job sleeps. With the
        // watermark in place, workers skip (almost) everything queued
        // behind the failure instead of running all 64 jobs.
        let executed = AtomicUsize::new(0);
        let out: Result<Vec<usize>, &str> = try_parallel_map(
            64,
            4,
            || (),
            |_, i| {
                if i == 0 {
                    return Err("boom");
                }
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(i)
            },
        );
        assert_eq!(out, Err("boom"));
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 64, "early-cancel skipped nothing: {ran}/64 jobs ran");
    }

    #[test]
    fn try_map_error_selection_survives_cancellation() {
        // Two failing indices; the high one is fast and fails first in
        // wall-clock terms, but selection must still pick index 3.
        for _ in 0..16 {
            let out: Result<Vec<usize>, usize> = try_parallel_map(
                12,
                4,
                || (),
                |_, i| {
                    if i == 3 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        Err(i)
                    } else if i == 9 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
            );
            assert_eq!(out, Err(3));
        }
    }

    #[test]
    fn try_map_serial_short_circuits() {
        let executed = AtomicUsize::new(0);
        let out: Result<Vec<usize>, usize> = try_parallel_map(
            10,
            1,
            || (),
            |_, i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 4 {
                    Err(i)
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(out, Err(4));
        assert_eq!(executed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn try_map_builds_one_state_per_worker() {
        // Each job counts into its worker's state: the counts over all
        // states sum to the jobs, and at most `threads` states exist.
        for threads in [1, 3] {
            let states = AtomicUsize::new(0);
            let out: Result<Vec<(usize, usize)>, ()> = try_parallel_map(
                24,
                threads,
                || {
                    states.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, i| {
                    *seen += 1;
                    Ok((i, *seen))
                },
            );
            let out = out.unwrap();
            assert_eq!(
                out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..24).collect::<Vec<_>>()
            );
            let built = states.load(Ordering::Relaxed);
            assert!((1..=threads).contains(&built), "{built} states for {threads} workers");
            if threads == 1 {
                assert_eq!(out.last(), Some(&(23, 24)), "the serial path shares one state");
            }
        }
    }

    #[test]
    fn worker_count_zero_resolves_to_cores() {
        assert!(worker_count(0) >= 1);
        assert_eq!(worker_count(5), 5);
    }

    #[test]
    fn empty_and_single_item_maps() {
        assert_eq!(map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map(1, 4, |i| i), vec![0]);
    }
}
