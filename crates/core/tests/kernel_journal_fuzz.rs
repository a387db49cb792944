//! Randomized op-sequence fuzz of the kernel's undo journal.
//!
//! The DRAM journal fuzz (`cta_dram`'s `journal_fuzz`) drives the module
//! directly; this one drives a whole machine through the kernel's own
//! entry points — process creation, anonymous `mmap`/`munmap`, virtual
//! writes, translations, TLB and page flushes, page-table allocation and
//! double-sided hammering of page-table and arbitrary rows — on stock and
//! CTA machines, and checks two oracles:
//!
//! * **Rollback.** A trial run in place under `journal_begin` equals the
//!   same trial run on a fork, and after `journal_rollback` the machine
//!   equals a fork taken before the journal opened: contents hash,
//!   telemetry counters, live pids and every process's page-table pages.
//!   Two trials run back to back, so the second hashes from checkpoints
//!   the first one built.
//! * **Placement.** On a CTA machine, `verify_system` reports no
//!   page-table page below the low water mark or in anti-cell rows after
//!   every op, hammering included: flips change what a page-table entry
//!   holds, never where a page-table page lives.

use cta_core::{verify_system, Violation};
use cta_dram::RowId;
use cta_mem::{PtLevel, PAGE_SIZE};
use cta_vm::{Access, Kernel, KernelConfig, VirtAddr};
use proptest::prelude::*;

/// Two user regions under different PML4 entries, 128 pages each.
const REGIONS: [u64; 2] = [0x4000_0000, 0x7f00_0000_0000];

/// One randomized kernel op. Parameters are raw and resolved at apply
/// time (a process index modulo the live pids, a page index into
/// [`REGIONS`]); an op the kernel refuses (an overlap, an unmapped page, a
/// full zone) is part of the trial too.
#[derive(Debug, Clone)]
enum Op {
    CreateProcess { trusted: bool },
    Mmap { proc: u8, page: u16, pages: u8, writable: bool },
    Munmap { proc: u8, page: u16, pages: u8 },
    WriteVirt { proc: u8, page: u16, byte: u8 },
    Translate { proc: u8, page: u16, write: bool },
    FlushTlb,
    FlushPage { proc: u8, page: u16 },
    PteAlloc { proc: u8, level: u8 },
    HammerPageTable { index: u16 },
    HammerRow { row: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<bool>().prop_map(|trusted| Op::CreateProcess { trusted }),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<bool>())
            .prop_map(|(proc, page, pages, writable)| Op::Mmap { proc, page, pages, writable }),
        (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(proc, page, pages)| Op::Munmap {
            proc,
            page,
            pages
        }),
        (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(proc, page, byte)| Op::WriteVirt {
            proc,
            page,
            byte
        }),
        (any::<u8>(), any::<u16>(), any::<bool>()).prop_map(|(proc, page, write)| Op::Translate {
            proc,
            page,
            write
        }),
        Just(Op::FlushTlb),
        (any::<u8>(), any::<u16>()).prop_map(|(proc, page)| Op::FlushPage { proc, page }),
        (any::<u8>(), any::<u8>()).prop_map(|(proc, level)| Op::PteAlloc { proc, level }),
        any::<u16>().prop_map(|index| Op::HammerPageTable { index }),
        any::<u64>().prop_map(|row| Op::HammerRow { row }),
    ]
}

/// The user address of page `page`: even pages in the first region, odd
/// pages in the second.
fn va(page: u16) -> VirtAddr {
    let page = u64::from(page);
    VirtAddr(REGIONS[(page & 1) as usize] + (page >> 1) % 128 * PAGE_SIZE)
}

fn apply(k: &mut Kernel, op: &Op) {
    let pids = k.pids();
    let pid = |proc: u8| pids[proc as usize % pids.len()];
    // Refusals are legitimate outcomes; the oracles compare whatever state
    // they leave.
    match *op {
        Op::CreateProcess { trusted } => {
            let _ = k.create_process(trusted);
        }
        Op::Mmap { proc, page, pages, writable } => {
            let len = (u64::from(pages) % 8 + 1) * PAGE_SIZE;
            let _ = k.mmap_anonymous(pid(proc), va(page), len, writable);
        }
        Op::Munmap { proc, page, pages } => {
            let len = (u64::from(pages) % 4 + 1) * PAGE_SIZE;
            let _ = k.munmap(pid(proc), va(page), len);
        }
        Op::WriteVirt { proc, page, byte } => {
            let at = VirtAddr(va(page).0 + u64::from(byte) * 8);
            let _ = k.write_virt(pid(proc), at, &[byte; 24], Access::user_write());
        }
        Op::Translate { proc, page, write } => {
            let access = if write { Access::user_write() } else { Access::user_read() };
            let _ = k.translate(pid(proc), va(page), access);
        }
        Op::FlushTlb => k.flush_tlb(),
        Op::FlushPage { proc, page } => k.flush_page(pid(proc), va(page)),
        Op::PteAlloc { proc, level } => {
            let level =
                [PtLevel::Pml4, PtLevel::Pdpt, PtLevel::Pd, PtLevel::Pt][level as usize % 4];
            let _ = k.pte_alloc(pid(proc), level);
        }
        Op::HammerPageTable { index } => {
            let tables: Vec<u64> = pids
                .iter()
                .flat_map(|&p| k.process(p).expect("live pid").pt_pages().to_vec())
                .map(|(pfn, _)| pfn.addr().0)
                .collect();
            let addr = tables[index as usize % tables.len()];
            let row = k.dram().geometry().row_of_addr(addr).expect("page-table frame in memory");
            k.dram_mut().hammer_double_sided(row).expect("row in memory");
        }
        Op::HammerRow { row } => {
            let rows = k.dram().geometry().total_rows();
            k.dram_mut().hammer_double_sided(RowId(row % rows)).expect("row in memory");
        }
    }
}

/// What the rollback oracle compares: contents hash, telemetry, clock,
/// live pids and each process's page-table pages.
fn observe(k: &Kernel) -> (u64, String, u64, String) {
    let pids = k.pids();
    let tables: Vec<_> = pids.iter().map(|&p| k.process(p).expect("live pid").pt_pages()).collect();
    (
        k.dram().contents_hash(),
        k.counters("kernel").to_json(),
        k.now_ns(),
        format!("{pids:?}|{tables:?}"),
    )
}

/// Page-table pages below the mark or in anti-cell rows.
fn misplaced_tables(k: &Kernel) -> Vec<Violation> {
    let report = verify_system(k).expect("registered page tables are in memory");
    report
        .violations
        .into_iter()
        .filter(|v| matches!(v, Violation::PtBelowMark { .. } | Violation::PtInAntiCells { .. }))
        .collect()
}

proptest! {
    // Each case boots one small machine and runs two trials of up to 32
    // ops on it and on a fork; 64 cases take well under a second.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_rollback_restores_the_machine_for_any_op_sequence(
        cta in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..32),
        next_ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        let config = if cta { KernelConfig::small_test_cta() } else { KernelConfig::small_test() };
        let mut k = Kernel::new(config).expect("boot");
        // Pre-trial history: a process with mapped, written pages, so the
        // trials change live page tables and rows, not only blank ones.
        let pid = k.create_process(false).expect("first process");
        k.mmap_anonymous(pid, va(0), 4 * PAGE_SIZE, true).expect("first mapping");
        k.write_virt(pid, va(0), b"pre-trial", Access::user_write()).expect("first write");
        let before = observe(&k.fork());

        for (trial, ops) in [&ops, &next_ops].into_iter().enumerate() {
            let mut forked = k.fork();
            k.journal_begin();
            for op in ops {
                apply(&mut k, op);
                apply(&mut forked, op);
                if cta {
                    let misplaced = misplaced_tables(&k);
                    prop_assert!(misplaced.is_empty(), "after {:?}: {:?}", op, misplaced);
                }
            }
            prop_assert_eq!(observe(&k), observe(&forked), "trial {} in place vs on a fork", trial);
            k.journal_rollback();
            prop_assert_eq!(observe(&k), before.clone(), "trial {} rolled back", trial);
        }
    }
}
