//! The section 2.5 comparative baseline: CATT (Brasser et al.), the
//! software defense that physically partitions kernel and user memory.
//! CATT stops the vanilla spray attack — but the paper points out two
//! bypasses that CTA survives and CATT does not:
//!
//! 1. **DRAM row remapping**: a user-partition row whose *storage* the
//!    manufacturer placed adjacent to kernel rows gives the attacker an
//!    aggressor next to page tables despite the logical partition.
//! 2. **Double-owned pages**: a kernel page shared into user space (video
//!    buffer style) is an attacker-accessible aggressor physically inside
//!    kernel memory.
//!
//! In both cases CATT's *spatial* isolation breaks while CTA's
//! *directional* guarantee is untouched.
//!
//! Setup detail: the sprayed file spans 60 pages, so every page table is
//! dense with PTEs whose user-partition frames sit one `1→0` flip of
//! pfn-bit-10 above the kernel-partition PT frames — the flip pattern the
//! bypasses exploit.

use cta_bench::{defended_builder, emit_telemetry, header, kv};
use cta_core::verify::verify_system;
use cta_core::{CattPartition, DefenseSpec, SystemBuilder};
use cta_dram::{CellType, RowId};
use cta_mem::PAGE_SIZE;
use cta_telemetry::Counters;
use cta_vm::{Access, Kernel, Pid, VirtAddr};

const TOTAL: u64 = 8 << 20;
const FILE_PAGES: u64 = 60;
const REGIONS: u64 = 48;

fn base_builder(seed: u64, protected: bool) -> SystemBuilder {
    // The shared standard machine, with a finer polarity alternation
    // (16-row runs) so both cell types exist near any allocation site —
    // required for same-polarity manufacturer remaps between partitions.
    defended_builder(seed, protected, DefenseSpec::None).cell_period(16)
}

fn catt_machine(seed: u64) -> Kernel {
    // CATT is the allocation-seam member of the defense catalog: the spec
    // installs the partitioned memory map at boot, no DRAM hook.
    base_builder(seed, false)
        .defense(DefenseSpec::Catt(CattPartition::half_of(TOTAL)))
        .build()
        .expect("CATT machine boots")
}

/// Sprays the wide file across many regions, filling page tables.
fn spray(kernel: &mut Kernel) -> (Pid, Vec<VirtAddr>) {
    let pid = kernel.create_process(false).expect("process");
    let file = kernel.create_file(FILE_PAGES * PAGE_SIZE).expect("file");
    let mut regions = Vec::new();
    for i in 0..REGIONS {
        let va = VirtAddr(0x4000_0000 + i * (2 << 20));
        if kernel.mmap_file(pid, va, file, true).is_err() {
            break;
        }
        regions.push(va);
    }
    (pid, regions)
}

/// Hammers the row backing `va`, one full burst per refresh window.
fn hammer_va(kernel: &mut Kernel, pid: Pid, va: VirtAddr) {
    let interval = kernel.dram().config().refresh_interval_ns;
    kernel.dram_mut().advance(interval);
    if let Ok(row) = kernel.row_of_virt(pid, va) {
        let threshold = kernel.dram().config().disturbance.hammer_threshold;
        let _ = kernel.dram_mut().hammer(row, threshold);
    }
    kernel.flush_tlb();
}

fn self_refs(kernel: &Kernel) -> usize {
    verify_system(kernel).expect("verifier").self_references().count()
}

/// Disturbance flips that landed inside the process's page-table rows —
/// the exact corruption CATT promises can never happen (its integrity
/// guarantee), and which the paper's cited follow-up attacks (refs 10 and
/// 12) turn into full privilege escalation.
fn pt_row_flips(kernel: &Kernel, pid: Pid) -> u64 {
    let row_bytes = kernel.dram().geometry().row_bytes();
    let pt_rows: std::collections::BTreeSet<u64> = kernel
        .process(pid)
        .expect("proc")
        .pt_pages()
        .iter()
        .map(|(pfn, _)| pfn.addr().0 / row_bytes)
        .collect();
    kernel.dram().stats().flip_log.iter().filter(|f| pt_rows.contains(&f.row().0)).count() as u64
}

/// The attacker-ownable VA (a file-page mapping) whose frame's row has the
/// same cell polarity as `spare`, for a manufacturer remap.
fn matching_user_va(
    kernel: &mut Kernel,
    pid: Pid,
    regions: &[VirtAddr],
    spare_type: CellType,
) -> Option<(VirtAddr, RowId)> {
    for page in 0..FILE_PAGES {
        let va = regions[0].offset(page * PAGE_SIZE);
        let phys = kernel.translate(pid, va, Access::user_read()).ok()?;
        let row = kernel.dram().geometry().row_of_addr(phys).ok()?;
        if kernel.dram().cell_type_of_row(row).ok()? == spare_type {
            return Some((va, row));
        }
    }
    None
}

/// Finds a (user VA, user row, spare row) triple for the manufacturer
/// remap: the spare is a non-page-table row adjacent to at least one page
/// table, with the same cell polarity as one of the attacker's file rows.
fn remap_triple(
    kernel: &mut Kernel,
    pid: Pid,
    regions: &[VirtAddr],
) -> Option<(VirtAddr, RowId, RowId)> {
    let row_bytes = kernel.dram().geometry().row_bytes();
    let total_rows = kernel.dram().geometry().total_rows();
    let secret_row = kernel.kernel_secret().0.addr().0 / row_bytes;
    let pt_rows: std::collections::BTreeSet<u64> = kernel
        .process(pid)
        .ok()?
        .pt_pages()
        .iter()
        .map(|(pfn, _)| pfn.addr().0 / row_bytes)
        .collect();
    let mut candidates = Vec::new();
    for row in &pt_rows {
        for cand in [row.checked_sub(1)?, row + 1] {
            if cand < total_rows && !pt_rows.contains(&cand) && cand != secret_row {
                candidates.push(RowId(cand));
            }
        }
    }
    for spare in candidates {
        let spare_type = kernel.dram().cell_type_of_row(spare).ok()?;
        if let Some((va, user_row)) = matching_user_va(kernel, pid, regions, spare_type) {
            if user_row != spare {
                return Some((va, user_row, spare));
            }
        }
    }
    None
}

fn main() {
    let seeds = 0..12u64;

    // ------------------------------------------------------------------
    header("Scenario A: vanilla spray+hammer — CATT holds (as published)");
    let mut catt_vanilla_refs = 0usize;
    let mut catt_vanilla_pt_flips = 0u64;
    for seed in seeds.clone() {
        let mut kernel = catt_machine(seed);
        let (pid, regions) = spray(&mut kernel);
        for page in 0..4 {
            hammer_va(&mut kernel, pid, regions[0].offset(page * PAGE_SIZE));
        }
        catt_vanilla_refs += self_refs(&kernel);
        catt_vanilla_pt_flips += pt_row_flips(&kernel, pid);
    }
    kv("CATT: self-referencing PTEs (12 modules)", catt_vanilla_refs);
    kv("CATT: flips inside page-table rows", catt_vanilla_pt_flips);
    assert_eq!(catt_vanilla_refs, 0, "CATT does stop the naive attack");
    assert_eq!(catt_vanilla_pt_flips, 0, "the partition isolates page tables");

    // ------------------------------------------------------------------
    header("Scenario B: DRAM row remapping — CATT breaks, CTA holds");
    let mut catt_remap_pt_flips = 0u64;
    let mut catt_remap_refs = 0usize;
    let mut cta_remap_refs = 0usize;
    let mut cta_remap_pt_flips = 0u64;
    for seed in seeds.clone() {
        for protected in [false, true] {
            let mut kernel = if protected {
                base_builder(seed, true).build().expect("CTA boots")
            } else {
                catt_machine(seed)
            };
            let (pid, regions) = spray(&mut kernel);
            let Some((va, user_row, spare)) = remap_triple(&mut kernel, pid, &regions) else {
                continue;
            };
            kernel.dram_mut().remap_row(user_row, spare).expect("same-polarity remap");
            hammer_va(&mut kernel, pid, va);
            if protected {
                cta_remap_refs += self_refs(&kernel);
                cta_remap_pt_flips += pt_row_flips(&kernel, pid);
            } else {
                catt_remap_refs += self_refs(&kernel);
                catt_remap_pt_flips += pt_row_flips(&kernel, pid);
            }
        }
    }
    kv(
        "CATT + row remap: PT-row flips / self-refs",
        format!("{catt_remap_pt_flips} / {catt_remap_refs}"),
    );
    kv(
        "CTA  + row remap: PT-row flips / self-refs",
        format!("{cta_remap_pt_flips} / {cta_remap_refs}"),
    );
    assert!(catt_remap_pt_flips > 0, "remapping must breach CATT's kernel-integrity guarantee");
    assert_eq!(cta_remap_refs, 0, "CTA tolerates PT-row flips: they stay monotonic");

    // ------------------------------------------------------------------
    header("Scenario C: double-owned (shared kernel) page — CATT breaks, CTA holds");
    let mut catt_shared_pt_flips = 0u64;
    let mut catt_shared_refs = 0usize;
    let mut cta_shared_refs = 0usize;
    for seed in seeds {
        for protected in [false, true] {
            let mut kernel = if protected {
                base_builder(seed, true).build().expect("CTA boots")
            } else {
                catt_machine(seed)
            };
            let (pid, _) = spray(&mut kernel);
            // The kernel shares a buffer with the process; under CATT it
            // physically neighbors the freshly sprayed page tables.
            let shared = kernel.create_shared_kernel_page().expect("shared page");
            let share_va = VirtAddr(0x7000_0000);
            kernel.mmap_shared(pid, share_va, shared, true).expect("mmap_shared");
            hammer_va(&mut kernel, pid, share_va);
            if protected {
                cta_shared_refs += self_refs(&kernel);
            } else {
                catt_shared_pt_flips += pt_row_flips(&kernel, pid);
                catt_shared_refs += self_refs(&kernel);
            }
        }
    }
    kv(
        "CATT + shared page: PT-row flips / self-refs",
        format!("{catt_shared_pt_flips} / {catt_shared_refs}"),
    );
    kv("CTA  + shared page: self-referencing PTEs", cta_shared_refs);
    assert!(
        catt_shared_pt_flips > 0,
        "double-owned pages must breach CATT's kernel-integrity guarantee"
    );
    assert_eq!(cta_shared_refs, 0);

    let mut tel = Counters::new("exp-catt");
    tel.set_u64("catt", "vanilla_self_refs", catt_vanilla_refs as u64);
    tel.set_u64("catt", "vanilla_pt_row_flips", catt_vanilla_pt_flips);
    tel.set_u64("catt", "remap_self_refs", catt_remap_refs as u64);
    tel.set_u64("catt", "remap_pt_row_flips", catt_remap_pt_flips);
    tel.set_u64("catt", "shared_self_refs", catt_shared_refs as u64);
    tel.set_u64("catt", "shared_pt_row_flips", catt_shared_pt_flips);
    tel.set_u64("cta", "remap_self_refs", cta_remap_refs as u64);
    tel.set_u64("cta", "remap_pt_row_flips", cta_remap_pt_flips);
    tel.set_u64("cta", "shared_self_refs", cta_shared_refs as u64);
    emit_telemetry(&tel);

    println!("\nOK: CATT's spatial isolation breaks under remapping and sharing; CTA's");
    println!("directional guarantee does not depend on physical adjacency at all.");
}
