//! A journaled trial that fails — by returning an error or by panicking
//! — must not leave the pooled parent, or the contents-hash checkpoints
//! and row digests it keeps across trials, in a state a later trial can
//! observe.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cta_vm::{Kernel, KernelConfig, KernelPool, VmError};

fn boot() -> Result<Kernel, VmError> {
    Kernel::new(KernelConfig::small_test_cta())
}

/// Dirties the parent's first row and hashes it, so the trial's hash
/// resumes from row 0 and checkpoints exist when it fails.
fn dirty_row_zero(kernel: &mut Kernel, fresh: u64) {
    kernel.dram_mut().fill(0, 4096, 0xEE).expect("fill row 0");
    assert_ne!(kernel.dram().contents_hash(), fresh, "the trial changed the contents");
}

#[test]
fn the_trial_after_a_failed_one_hashes_like_a_fresh_boot() {
    let fresh = boot().expect("boot").dram().contents_hash();
    for panics in [false, true] {
        let mut pool: KernelPool<u32> = KernelPool::new(1);
        // A clean trial builds a checkpoint before every row.
        let clean = pool.run_journaled(&0, boot, |k| k.dram().contents_hash()).expect("boot");
        assert_eq!(clean, fresh);

        if panics {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                pool.run_journaled(&0, boot, |k| {
                    dirty_row_zero(k, fresh);
                    panic!("trial body panicked");
                })
            }));
            assert!(unwound.is_err());
        } else {
            let out = pool
                .run_journaled(&0, boot, |k| {
                    dirty_row_zero(k, fresh);
                    Err::<(), _>("trial body failed")
                })
                .expect("pool hit");
            assert!(out.is_err());
        }

        // The next trial repairs an abandoned journal before it begins.
        let after = pool
            .run_journaled(&0, boot, |k| {
                assert!(k.dram().journal_active());
                k.dram().contents_hash()
            })
            .expect("pool hit");
        assert_eq!(after, fresh, "panicking trial: {panics}");
        let fork = pool.fork_for(&0, boot).expect("pool hit");
        assert_eq!(fork.dram().contents_hash(), fresh);
        assert_eq!(pool.stats().boots, 1);
    }
}

/// Writes row 0 back over itself: the contents stay those of the parent,
/// but row 0 is dirty, so the trial's hash replays every row.
fn rewrite_row_zero(kernel: &mut Kernel) {
    let row_bytes = kernel.dram().geometry().row_bytes() as usize;
    let row = kernel.dram().peek(0, row_bytes).expect("peek row 0");
    kernel.dram_mut().write(0, &row).expect("rewrite row 0");
}

/// Rows the digest scenario keeps data in.
const DATA_ROWS: std::ops::Range<u64> = 16..80;

/// [`boot`], plus data a digest can describe in [`DATA_ROWS`]: all-ones
/// rows alternating with rows of one set byte.
fn boot_with_data() -> Result<Kernel, VmError> {
    let mut kernel = boot()?;
    let row_bytes = kernel.dram().geometry().row_bytes();
    for row in DATA_ROWS {
        let dram = kernel.dram_mut();
        if row % 2 == 0 {
            dram.fill(row * row_bytes, row_bytes as usize, 0xFF).expect("fill a data row");
        } else {
            dram.write(row * row_bytes + 8, &[row as u8]).expect("write a data row");
        }
    }
    Ok(kernel)
}

/// Overwrites every data row with a dense pattern.
fn overwrite_data_rows(kernel: &mut Kernel) {
    let row_bytes = kernel.dram().geometry().row_bytes();
    let len = (DATA_ROWS.end - DATA_ROWS.start) * row_bytes;
    kernel.dram_mut().fill(DATA_ROWS.start * row_bytes, len as usize, 0xA5).expect("overwrite");
}

#[test]
fn a_trial_that_panics_over_digested_rows_leaves_a_fresh_boots_hash() {
    let fresh = boot_with_data().expect("boot").dram().contents_hash();
    let mut overwritten = boot_with_data().expect("boot");
    overwrite_data_rows(&mut overwritten);
    let overwritten = overwritten.dram().contents_hash();
    let mut pool: KernelPool<u32> = KernelPool::new(1);
    // Trial 1: the second of its clean hashes compiles the row digests.
    let digested = pool
        .run_journaled(&0, boot_with_data, |k| {
            rewrite_row_zero(k);
            assert_eq!(k.dram().contents_hash(), fresh);
            assert_eq!(k.dram().rows_digested(), 0);
            assert_eq!(k.dram().contents_hash(), fresh);
            k.dram().rows_digested()
        })
        .expect("boot");
    assert!(digested >= DATA_ROWS.count(), "trial 1 compiled a digest per data row");

    // Trial 2 overwrites the data rows, hashes them from their bytes, and
    // panics.
    let mut in_trial = None;
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        pool.run_journaled(&0, boot_with_data, |k| {
            overwrite_data_rows(k);
            rewrite_row_zero(k);
            in_trial = Some(k.dram().contents_hash());
            panic!("trial body panicked");
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(in_trial, Some(overwritten), "the overwritten rows hash from their bytes");

    // Trial 3 runs on the repaired parent and replays every row again,
    // through the same digests.
    let (hash, after) = pool
        .run_journaled(&0, boot_with_data, |k| {
            rewrite_row_zero(k);
            (k.dram().contents_hash(), k.dram().rows_digested())
        })
        .expect("pool hit");
    assert_eq!(hash, fresh);
    assert_eq!(after, digested, "every digest survived the failed trial");
    assert_eq!(pool.stats().boots, 1);
}
