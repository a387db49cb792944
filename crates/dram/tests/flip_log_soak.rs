//! Soak test for the bounded flip log: long multi-window hammering must
//! keep the retained event log memory-stable while losing nothing from the
//! aggregate flip totals.

use cta_dram::{DramConfig, DramModule, RowId};

#[test]
fn long_campaign_keeps_flip_log_bounded_with_exact_totals() {
    const CAPACITY: usize = 64;
    const WINDOWS: usize = 40;

    let mut m = DramModule::new(DramConfig::small_test());
    m.set_flip_log_capacity(CAPACITY);

    let victim = RowId(2);
    let row_bytes = m.geometry().row_bytes();
    let victim_addr = victim.0 * row_bytes;
    let refresh_ns = m.config().refresh_interval_ns;

    for window in 0..WINDOWS {
        // Refill the victim with all-ones so disturbance keeps finding
        // chargeable bits, then hammer both neighbors to threshold.
        m.fill(victim_addr, row_bytes as usize, 0xFF).unwrap();
        m.hammer_double_sided(victim).unwrap();
        // Cross a refresh boundary so the next window starts fresh.
        m.advance(refresh_ns);

        // The retained log never outgrows its capacity, no matter how
        // many windows have been hammered.
        assert!(
            m.stats().flip_log.len() <= CAPACITY,
            "window {window}: retained {} events > capacity {CAPACITY}",
            m.stats().flip_log.len()
        );
        // Exactness: every flip counted by the aggregate counters is
        // accounted for as retained-or-dropped in the log.
        assert_eq!(
            m.stats().total_flips(),
            m.stats().flip_log.total_recorded(),
            "window {window}: totals diverged from retained+dropped"
        );
    }

    let stats = m.stats();
    assert!(
        stats.total_flips() > CAPACITY as u64,
        "soak run too small to exercise eviction: {} flips",
        stats.total_flips()
    );
    assert_eq!(stats.flip_log.len(), CAPACITY);
    assert!(stats.flip_log.dropped() > 0);
    // The retained window holds the most recent events: all from late in
    // the run, in non-decreasing time order.
    let times: Vec<u64> = stats.flip_log.iter().map(|e| e.time_ns()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn zero_capacity_disables_retention_but_not_counting() {
    let mut m = DramModule::new(DramConfig::small_test());
    m.set_flip_log_capacity(0);

    let victim = RowId(2);
    let row_bytes = m.geometry().row_bytes();
    m.fill(victim.0 * row_bytes, row_bytes as usize, 0xFF).unwrap();
    m.hammer_double_sided(victim).unwrap();

    let stats = m.stats();
    assert!(stats.total_flips() > 0, "small_test pf should flip bits");
    assert!(stats.flip_log.is_empty());
    assert_eq!(stats.flip_log.dropped(), stats.total_flips());
}
