//! `Kernel::fork()` isolation: nothing a forked child does — mapping,
//! unmapping, hammering, even direct PTE corruption — is visible to the
//! parent. The parent's page tables, zone
//! statistics, telemetry, and No Self-Reference verdict stay untouched.

use monotonic_cta::core::verify::verify_system;
use monotonic_cta::core::SystemBuilder;
use monotonic_cta::dram::RowId;
use monotonic_cta::mem::PAGE_SIZE;
use monotonic_cta::vm::{Kernel, Pid, VirtAddr, PTE_ADDR_MASK};

fn parent_machine() -> (Kernel, Pid) {
    let mut kernel =
        SystemBuilder::new(16 << 20).ptp_bytes(1 << 20).seed(41).protected(true).build().unwrap();
    let pid = kernel.create_process(false).unwrap();
    for i in 0..4u64 {
        kernel
            .mmap_anonymous(pid, VirtAddr(0x4000_0000 + i * (4 << 20)), 4 * PAGE_SIZE, true)
            .unwrap();
    }
    (kernel, pid)
}

/// Everything we assert stays constant on the parent, in one snapshot.
fn snapshot(kernel: &Kernel, pid: Pid) -> (String, String, bool, usize) {
    let ptes: String = kernel
        .iter_pt_entries(pid)
        .unwrap()
        .iter()
        .map(|r| format!("{:?}@{:x}={:?};", r.level, r.entry_addr, r.pte))
        .collect();
    let counters = kernel.counters("parent").to_json();
    let clean = verify_system(kernel).unwrap().is_clean();
    let materialized = kernel.dram().rows_materialized();
    (ptes, counters, clean, materialized)
}

#[test]
fn child_mutations_never_reach_the_parent() {
    let (parent, pid) = parent_machine();
    let before = snapshot(&parent, pid);
    assert!(before.2, "parent must boot clean");

    let mut child = parent.fork();

    // Map/unmap churn: new frames, new page-table pages, freed frames.
    let child_pid = child.create_process(false).unwrap();
    for i in 0..6u64 {
        child
            .mmap_anonymous(child_pid, VirtAddr(0x7000_0000 + i * (4 << 20)), 2 * PAGE_SIZE, true)
            .unwrap();
    }
    child.munmap(pid, VirtAddr(0x4000_0000), 4 * PAGE_SIZE).unwrap();

    // Hammering: flips land in the child's DRAM only.
    for row in 1..32u64 {
        child.dram_mut().hammer_to_threshold(RowId(row)).unwrap();
    }

    // Direct PTE corruption: point a leaf entry of the child's clone of
    // the parent's process at the entry's own table frame — the
    // self-reference CTA exists to forbid.
    let record = child
        .iter_pt_entries(pid)
        .unwrap()
        .into_iter()
        .find(|r| r.pte.0 != 0)
        .expect("mapped process has present entries");
    let self_ref = (record.pte.0 & !PTE_ADDR_MASK) | ((record.table.0 * PAGE_SIZE) & PTE_ADDR_MASK);
    child.dram_mut().write_u64(record.entry_addr, self_ref).unwrap();
    assert!(!verify_system(&child).unwrap().is_clean(), "corrupted child must flunk verification");

    // The parent saw none of it: PTEs, zone stats + full telemetry,
    // No Self-Reference verdict, and materialized-row gauge unchanged.
    let after = snapshot(&parent, pid);
    assert_eq!(after.0, before.0, "parent PTEs changed");
    assert_eq!(after.1, before.1, "parent telemetry changed");
    assert!(after.2, "parent verdict changed");
    assert_eq!(after.3, before.3, "parent DRAM materialization changed");
}

#[test]
fn fork_of_fresh_boot_is_indistinguishable_from_reboot() {
    let build = || {
        SystemBuilder::new(8 << 20).ptp_bytes(512 * 1024).seed(7).protected(true).build().unwrap()
    };
    let parent = build();
    let mut forked = parent.fork();
    let mut rebooted = build();

    let pid_f = forked.create_process(false).unwrap();
    let pid_r = rebooted.create_process(false).unwrap();
    assert_eq!(pid_f, pid_r);
    forked.mmap_anonymous(pid_f, VirtAddr(0x5000_0000), 8 * PAGE_SIZE, true).unwrap();
    rebooted.mmap_anonymous(pid_r, VirtAddr(0x5000_0000), 8 * PAGE_SIZE, true).unwrap();

    assert_eq!(forked.iter_pt_entries(pid_f).unwrap(), rebooted.iter_pt_entries(pid_r).unwrap());
    assert_eq!(forked.counters("k").to_json(), rebooted.counters("k").to_json());
}
