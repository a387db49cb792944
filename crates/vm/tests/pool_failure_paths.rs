//! A journaled trial that fails — by returning an error or by panicking
//! — must not leave the pooled parent, or the contents-hash checkpoints
//! it keeps across trials, in a state a later trial can observe.

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
