//! Cross-crate integration: the section 7 extensions (hypervisor zones,
//! huge pages + PS-bit screening) and the hardening companions (ECC,
//! ANVIL) composed with full systems.

use monotonic_cta::core::verify::verify_system;
use monotonic_cta::core::{DefenseSpec, SystemBuilder};
use monotonic_cta::dram::{
    AnvilSamplerParams, DisturbanceParams, DramConfig, DramModule, EccRegion, RowId,
};
use monotonic_cta::mem::{GuestSpec, HypervisorPlan, MemoryMap, PtLevel};
use monotonic_cta::vm::{Access, Kernel, VirtAddr, HUGE_PAGE_SIZE};

#[test]
fn hypervisor_guests_boot_and_stay_in_their_slices() {
    let base = SystemBuilder::new(8 << 20).seed(77);
    let host = DramModule::new(base.to_config().dram.clone());
    let plan = HypervisorPlan::build(
        &host.ground_truth_cell_map(),
        8 << 20,
        &[GuestSpec::new("a", 256 * 1024), GuestSpec::new("b", 256 * 1024)],
    )
    .unwrap();
    assert!(plan.check(&host.ground_truth_cell_map()).is_empty());

    for guest in plan.guests() {
        let mut config = base.clone().to_config();
        config.memory_map_override =
            Some(MemoryMap::x86_64(8 << 20).with_cta(guest.layout.clone()));
        let mut kernel = Kernel::new(config).unwrap();
        let pid = kernel.create_process(false).unwrap();
        kernel.mmap_anonymous(pid, VirtAddr(0x4000_0000), 8 * 4096, true).unwrap();
        for (pfn, _) in kernel.process(pid).unwrap().pt_pages() {
            let addr = pfn.addr().0;
            assert!(guest.layout.subzones().iter().any(|(r, _)| r.contains(&addr)));
            assert!(addr >= plan.zone_base());
        }
        assert!(verify_system(&kernel).unwrap().is_clean());
    }
}

#[test]
fn huge_pages_survive_hammering_under_multilevel_screened_cta() {
    let mut kernel = SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(5)
        .protected(true)
        .multi_level(true)
        .screen_ps_bit(true)
        // pf must stay low enough that screening leaves usable PD/PDPT
        // frames: P(frame screened) = 1 − (1−pf)^512 ≈ 40% at pf = 1e-3.
        .disturbance(DisturbanceParams { pf: 0.001, reverse_rate: 0.0, ..Default::default() })
        .build()
        .unwrap();
    let pid = kernel.create_process(false).unwrap();
    let va = VirtAddr(0x4000_0000);
    kernel.mmap_huge(pid, va, HUGE_PAGE_SIZE, true).unwrap();
    kernel.write_virt(pid, va, b"huge page payload", Access::user_write()).unwrap();

    // Hammer the entire ZONE_PTP.
    let mark_row =
        kernel.ptp_layout().unwrap().low_water_mark() / kernel.dram().geometry().row_bytes();
    let rows = kernel.dram().geometry().total_rows();
    let interval = kernel.dram().config().refresh_interval_ns;
    for row in mark_row..rows {
        kernel.dram_mut().advance(interval);
        let _ = kernel.dram_mut().hammer_double_sided(RowId(row));
    }
    kernel.flush_tlb();

    // The screened PS bit cannot have flipped 1→0: the huge entry is still
    // huge, so the walk never descends into attacker data.
    let records = kernel.iter_pt_entries_exhaustive(pid).unwrap();
    let pd_entries: Vec<_> = records.iter().filter(|r| r.level == PtLevel::Pd).collect();
    assert!(pd_entries.iter().any(|r| r.pte.huge()), "the huge entry must keep PS=1");
    assert_eq!(verify_system(&kernel).unwrap().self_references().count(), 0);
}

#[test]
fn ecc_and_cta_protect_different_things() {
    // ECC on user data and CTA on page tables coexist on one module:
    // hammering corrupts ECC'd data (detected) without ever producing a
    // PTE self-reference.
    let mut kernel = SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(3)
        .protected(true)
        .disturbance(DisturbanceParams { pf: 0.02, ..Default::default() })
        .build()
        .unwrap();
    let pid = kernel.create_process(false).unwrap();
    kernel.mmap_anonymous(pid, VirtAddr(0x4000_0000), 4 * 4096, true).unwrap();

    let mut region = EccRegion::new(kernel.dram_mut(), 100 * 4096, 104 * 4096, 512).unwrap();
    for i in 0..512u64 {
        region.write_word(kernel.dram_mut(), i, u64::MAX).unwrap();
    }
    let row = kernel.dram().geometry().row_of_addr(100 * 4096).unwrap();
    kernel.dram_mut().hammer_double_sided(row).unwrap();
    let stats = region.scrub(kernel.dram_mut()).unwrap();
    assert!(stats.corrected + stats.detected_double + stats.detected_multi > 0);
    assert!(verify_system(&kernel).unwrap().is_clean());
}

#[test]
fn anvil_detects_an_attack_against_a_live_kernel() {
    let mut kernel = SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(8)
        .protected(true)
        .disturbance(DisturbanceParams { pf: 0.05, ..Default::default() })
        .defense(DefenseSpec::Anvil(AnvilSamplerParams::default()))
        .build()
        .unwrap();
    let anvil_alarms = |kernel: &Kernel| {
        let defense = kernel.dram().defense().expect("anvil installed");
        defense.counters().iter().find(|(k, _)| *k == "anvil_alarms").map(|(_, v)| *v).unwrap()
    };
    // Benign phase: no alarms.
    let pid = kernel.create_process(false).unwrap();
    kernel.mmap_anonymous(pid, VirtAddr(0x4000_0000), 16 * 4096, true).unwrap();
    for i in 0..64u64 {
        kernel
            .write_virt(pid, VirtAddr(0x4000_0000 + (i % 16) * 4096), &[1], Access::user_write())
            .unwrap();
    }
    assert_eq!(anvil_alarms(&kernel), 0);
    // Attack phase: an attacker hammer burst trips it.
    let row = kernel.row_of_virt(pid, VirtAddr(0x4000_0000)).unwrap();
    let threshold = kernel.dram().config().disturbance.hammer_threshold;
    kernel.dram_mut().hammer(row, threshold / 4).unwrap();
    assert!(anvil_alarms(&kernel) > 0);
}

#[test]
fn ecc_check_rows_are_hammerable_too() {
    // The check bits live in DRAM like everything else; corrupting *them*
    // is also detected (weight mismatch from the other side).
    let mut m = DramModule::new(
        DramConfig::small_test()
            .with_disturbance(DisturbanceParams { pf: 0.05, ..Default::default() }),
    );
    let mut region = EccRegion::new(&mut m, 2 * 4096, 30 * 4096, 512).unwrap();
    for i in 0..512u64 {
        region.write_word(&mut m, i, 0xAAAA_AAAA_AAAA_AAAA).unwrap();
    }
    m.hammer_double_sided(RowId(30)).unwrap();
    let stats = region.scrub(&mut m).unwrap();
    assert!(stats.corrected + stats.detected_double + stats.detected_multi > 0, "{stats:?}");
}
