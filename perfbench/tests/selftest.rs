//! Self-tests of the benchmark's inputs, digests and statistics.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cta_perfbench::campaign::digest_of_first;
use cta_perfbench::plan::{CampaignPlan, Table4Plan, Workload, DEFAULT_SEED, DIGEST_CAMPAIGNS};
use cta_perfbench::stats::{median, percentile};
use cta_perfbench::table4;

fn requests(workload: Workload, seed: u64) -> Vec<cta_perfbench::plan::Planned> {
    let plan = CampaignPlan::new(workload, seed);
    (0..2 * DIGEST_CAMPAIGNS).map(|i| plan.campaign(i)).collect()
}

#[test]
fn same_seed_same_requests_other_seed_other_inputs() {
    for workload in [Workload::SprayPool, Workload::ModuleSweep] {
        assert_eq!(requests(workload, 7), requests(workload, 7), "{workload}");
        assert_ne!(requests(workload, 7), requests(workload, 8), "{workload}");
    }
    let seeds = |seed| -> Vec<u64> {
        requests(Workload::ModuleSweep, seed).into_iter().flat_map(|p| p.spec.seeds).collect()
    };
    let (a, b) = (seeds(7), seeds(8));
    assert!(a.iter().all(|s| !b.contains(s)), "seeds 7 and 8 share module seeds");
    let (a, b) = (Table4Plan::new(7), Table4Plan::new(8));
    assert_eq!(Table4Plan::new(7).runner, a.runner);
    assert_ne!(a.runner.seed, b.runner.seed);
    assert_ne!(a.machine_seed, b.machine_seed);
}

#[test]
fn module_sweep_boots_a_fresh_module_per_trial() {
    let seeds: Vec<u64> = requests(Workload::ModuleSweep, DEFAULT_SEED)
        .into_iter()
        .flat_map(|p| p.spec.seeds)
        .collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seeds.len());
}

#[test]
fn campaign_digests_match_the_stored_ones_at_one_and_two_workers() {
    for workload in [Workload::SprayPool, Workload::ModuleSweep] {
        for workers in [1, 2] {
            assert_eq!(
                digest_of_first(workload, DEFAULT_SEED, workers, DIGEST_CAMPAIGNS),
                workload.stored_digest(),
                "{workload} at {workers} workers"
            );
        }
    }
}

#[test]
fn table4_digest_matches_the_stored_one() {
    let rows = table4::pass(&Table4Plan::new(DEFAULT_SEED)).expect("table4 pass runs");
    assert_eq!(table4::pass_digest(&rows), Workload::Table4.stored_digest());
}

#[test]
fn percentile_is_nearest_rank_and_needs_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 50), Some(50.0));
    assert_eq!(percentile(&samples, 90), Some(90.0));
    // Rank 91 leaves only 9 samples beyond it.
    assert_eq!(percentile(&samples, 91), None);
    assert_eq!(percentile(&samples[..99], 90), None);
    assert_eq!(percentile(&samples[..20], 50), Some(90.0));
    assert_eq!(percentile(&samples[..19], 50), None);
    assert_eq!(percentile(&[], 50), None);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}
