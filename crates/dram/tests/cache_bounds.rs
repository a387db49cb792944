//! Memory-bound test for the per-row model caches: a templating sweep over
//! every row of a module must hold the vulnerability/retention caches at
//! O(capacity), not O(rows swept), with the overflow visible as eviction
//! counters in telemetry.

use cta_dram::{
    AddressMapping, CellLayout, CellType, DisturbanceParams, DramConfig, DramGeometry, DramModule,
    RowId,
};
use cta_telemetry::Counters;

/// A 4096-row module with a deliberately small model-cache capacity, so the
/// sweep overflows it many times over.
fn capped_module(capacity: usize) -> DramModule {
    let config = DramConfig {
        geometry: DramGeometry::new(4096, 4096, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        disturbance: DisturbanceParams { pf: 0.02, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    };
    let mut m = DramModule::new(config);
    m.set_model_cache_capacity(capacity);
    m
}

#[test]
fn templating_sweep_stays_within_cache_capacity() {
    let capacity = 64;
    let mut m = capped_module(capacity);
    let rows = m.geometry().total_rows();
    // The templating loop: reconstruct every row's vulnerability map, and
    // hammer a sample of rows so the disturb path looks maps up too.
    for row in 0..rows {
        let _ = m.vulnerable_bits(RowId(row)).unwrap();
        if row % 37 == 0 {
            m.hammer_to_threshold(RowId(row)).unwrap();
            m.advance(m.config().refresh_interval_ns);
        }
    }
    assert!(
        m.model_cache_rows() <= capacity,
        "cache grew past capacity: {} > {capacity}",
        m.model_cache_rows()
    );
    // Sweeping 4096 rows through a 64-entry cache evicts ~4032 maps.
    let stats = m.stats();
    assert!(
        stats.vuln_cache_evictions >= (rows - capacity as u64),
        "sweep should have evicted ≥ {} maps, saw {}",
        rows - capacity as u64,
        stats.vuln_cache_evictions
    );
}

#[test]
fn decay_sweep_bounds_the_retention_caches() {
    let capacity = 32;
    let mut m = capped_module(capacity);
    let row_bytes = m.geometry().row_bytes() as usize;
    // Materialize a spread of rows, then decay them all in one partial
    // refresh outage: one long-cell list per row.
    for row in (0..512u64).step_by(4) {
        m.fill(row * row_bytes as u64, row_bytes, 0xFF).unwrap();
    }
    m.disable_refresh();
    let p = m.config().retention;
    m.advance(p.min_ns + (p.max_ns - p.min_ns) / 2);
    m.enable_refresh();
    assert!(m.stats().decay_flips > 0, "the outage must actually decay cells");
    assert!(
        m.model_cache_rows() <= capacity,
        "retention caches grew past capacity: {} > {capacity}",
        m.model_cache_rows()
    );
    assert!(m.stats().retention_cache_evictions > 0);
}

#[test]
fn eviction_counters_surface_in_telemetry() {
    let mut m = capped_module(16);
    for row in 0..64 {
        let _ = m.vulnerable_bits(RowId(row)).unwrap();
    }
    let mut c = Counters::new("bounds");
    c.record(m.stats());
    let g = c.group("dram").unwrap();
    let evictions = g.get_u64("vuln_cache_evictions").unwrap();
    assert_eq!(evictions, m.stats().vuln_cache_evictions);
    assert!(evictions >= 48, "64 rows through 16 entries evicts ≥ 48, saw {evictions}");
    assert_eq!(g.get_u64("retention_cache_evictions"), Some(m.stats().retention_cache_evictions));
}

#[test]
fn eviction_is_behavior_neutral() {
    // A capped module and an uncapped one must simulate identically: evicted
    // maps are regenerated from seed, never altered.
    let mut capped = capped_module(8);
    let mut uncapped = capped_module(4096);
    for m in [&mut capped, &mut uncapped] {
        m.fill(0, 64 * 4096, 0xFF).unwrap();
        for row in 0..64 {
            m.hammer_to_threshold(RowId(row)).unwrap();
            m.advance(m.config().refresh_interval_ns);
        }
    }
    assert_eq!(
        capped.peek(0, 64 * 4096).unwrap(),
        uncapped.peek(0, 64 * 4096).unwrap(),
        "eviction changed simulated behavior"
    );
    assert_eq!(capped.stats().total_flips(), uncapped.stats().total_flips());
    assert!(capped.stats().vuln_cache_evictions > uncapped.stats().vuln_cache_evictions);
}

#[test]
fn vuln_cache_bytes_weighs_each_held_map_as_its_bit_list() {
    // The gauge counts model content, not the bitplane representation:
    // 16 B (one `VulnerableBit`) per vulnerable cell of every held row.
    let mut m = capped_module(4096);
    let mut victims = Vec::new();
    for aggressor in [10u64, 20, 30] {
        m.hammer_to_threshold(RowId(aggressor)).unwrap();
        victims.extend(m.geometry().adjacent_rows(RowId(aggressor)).unwrap());
    }
    assert_eq!(m.model_cache_rows(), victims.len(), "only the victims' maps are held");
    let bits: usize = victims.iter().map(|&row| m.vulnerable_bits(row).unwrap().len()).sum();
    assert!(bits > 0, "pf = 2% leaves vulnerable cells in the victims");
    assert_eq!(m.stats().vuln_cache_bytes, 16 * bits as u64);
    assert_eq!(m.model_cache_rows(), victims.len(), "decoding holds no new rows");
}
