//! The defense cross-product: every attack × every defense in the
//! [`DefenseSpec`] catalog × three cell layouts, on the shared standard
//! machine.
//!
//! Each cell runs the attack over a fixed seed set and reports its
//! empirical exploit probability (successes / seeds); the footer adds
//! Table-4-style per-defense overhead rows measured on benign workloads.
//! The matrix is what the one defense layer buys: CATT (allocation seam,
//! [`DefenseSpec::configure`]), ANVIL, SoftTRR, and BlockHammer
//! (activation seam, [`DefenseSpec::row_defense`]) all plug into the same
//! machines the attacks run against, with no per-defense wiring in the
//! attack code.
//!
//! Success criteria per attack: the three `cta-attack` drivers use their
//! own [`cta_attack::AttackOutcome::success`] (secret read via PTE
//! self-reference); the inline `hammer` attack counts the exploit
//! *precursor* — at least one disturbance flip inside the victim's
//! page-table rows.
//!
//! `--quick` shrinks the seed set (2 instead of 4) for the CI gate.

use std::collections::BTreeMap;

use cta_attack::{BruteForceCtaAttack, SprayAttack, TemplatingAttack};
use cta_bench::{defended_builder, emit_telemetry, header, kv};
use cta_core::DefenseSpec;
use cta_dram::CellType;
use cta_mem::PAGE_SIZE;
use cta_telemetry::Counters;
use cta_vm::{Kernel, Pid, VirtAddr, VmError};
use cta_workloads::{spec2006, Runner};

const TOTAL: u64 = 8 << 20;
const SEEDS_FULL: &[u64] = &[11, 12, 13, 14];
const SEEDS_QUICK: &[u64] = &[11, 12];

/// A cell layout the matrix runs under: alternation period and polarity
/// of row 0.
#[derive(Debug, Clone, Copy)]
struct Layout {
    name: &'static str,
    period_rows: u64,
    first: CellType,
}

const LAYOUTS: &[Layout] = &[
    Layout { name: "alt64", period_rows: 64, first: CellType::True },
    Layout { name: "alt16", period_rows: 16, first: CellType::True },
    // One giant run: every row true-cell (all flips 1→0).
    Layout { name: "true-only", period_rows: 1 << 40, first: CellType::True },
];

/// The attack axis.
#[derive(Debug, Clone, Copy)]
enum Attack {
    /// PTE-spray privilege escalation (small variant).
    Spray,
    /// Drammer-style templating (small variant).
    Templating,
    /// Budgeted Algorithm-1 brute force.
    Brute,
    /// Direct PT-row disturbance: spray page tables, hammer own rows,
    /// succeed if any flip lands in a page-table row.
    Hammer,
}

const ATTACKS: &[Attack] = &[Attack::Spray, Attack::Templating, Attack::Brute, Attack::Hammer];

impl Attack {
    fn name(self) -> &'static str {
        match self {
            Attack::Spray => "spray",
            Attack::Templating => "templating",
            Attack::Brute => "brute",
            Attack::Hammer => "hammer",
        }
    }

    /// Runs the attack against one machine; `true` means exploited.
    fn run(self, kernel: &mut Kernel) -> Result<bool, VmError> {
        match self {
            Attack::Spray => Ok(SprayAttack::default().run(kernel)?.success()),
            Attack::Templating => {
                let attack =
                    TemplatingAttack { arena_pages: 96, max_attempts: 4, flush_per_probe: false };
                Ok(attack.run(kernel)?.success())
            }
            Attack::Brute => {
                let attack = BruteForceCtaAttack {
                    fill_regions: 8,
                    walks_per_row: 64,
                    target_page_budget: 1,
                };
                let (outcome, _report) = attack.run(kernel)?;
                Ok(outcome.success())
            }
            Attack::Hammer => run_hammer_attack(kernel),
        }
    }
}

/// Disturbance flips that landed inside the process's page-table rows.
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

/// The inline hammer attack: fill page tables by spraying a file, then
/// hammer the rows backing the attacker's own pages at full threshold.
/// On a stock machine the attacker's frames interleave with page-table
/// frames, so PT rows take disturbance; a defense earns its column by
/// preventing exactly that.
fn run_hammer_attack(kernel: &mut Kernel) -> Result<bool, VmError> {
    let pid = kernel.create_process(false)?;
    let file = kernel.create_file(16 * PAGE_SIZE)?;
    let mut regions = Vec::new();
    for i in 0..12u64 {
        let va = VirtAddr(0x4000_0000 + i * (2 << 20));
        if kernel.mmap_file(pid, va, file, true).is_err() {
            break;
        }
        regions.push(va);
    }
    for region in regions.iter().take(3) {
        for page in 0..4u64 {
            let va = region.offset(page * PAGE_SIZE);
            let interval = kernel.dram().config().refresh_interval_ns;
            kernel.dram_mut().advance(interval);
            if let Ok(row) = kernel.row_of_virt(pid, va) {
                let threshold = kernel.dram().config().disturbance.hammer_threshold;
                let _ = kernel.dram_mut().hammer(row, threshold);
            }
            kernel.flush_tlb();
        }
    }
    Ok(pt_row_flips(kernel, pid) > 0)
}

/// One machine of the matrix: standard size/disturbance, unprotected (the
/// matrix measures the defense zoo, not CTA), with the cell layout and
/// defense of the cell.
fn machine(seed: u64, layout: Layout, defense: DefenseSpec) -> Kernel {
    defended_builder(seed, false, defense)
        .cell_period(layout.period_rows)
        .first_cell_type(layout.first)
        .build()
        .expect("matrix machine boots")
}

/// Folds a defended kernel's defense counters into the aggregate view.
fn harvest_defense_counters(kernel: &Kernel, agg: &mut BTreeMap<&'static str, u64>) {
    let stats = kernel.dram().defense_stats();
    *agg.entry("activations_denied").or_insert(0) += stats.activations_denied;
    *agg.entry("targeted_refreshes").or_insert(0) += stats.targeted_refreshes;
    if let Some(defense) = kernel.dram().defense() {
        for (key, value) in defense.counters() {
            *agg.entry(key).or_insert(0) += value;
        }
    }
}

/// Per-defense benign overhead: total simulated time of two SPEC-shaped
/// workloads on a defended machine vs the undefended one, as Δ%.
fn overhead_delta_percent(defense: DefenseSpec, baseline_ns: u64) -> f64 {
    let t = benign_sim_ns(defense);
    (t as f64 - baseline_ns as f64) / baseline_ns as f64 * 100.0
}

fn benign_sim_ns(defense: DefenseSpec) -> u64 {
    let mut kernel = machine(7, LAYOUTS[0], defense);
    let runner = Runner { repetitions: 1, seed: 9 };
    let start = kernel.now_ns();
    for spec in spec2006().iter().take(2) {
        runner.run(&mut kernel, spec).expect("benign workload runs");
    }
    kernel.now_ns() - start
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: &[u64] = if quick { SEEDS_QUICK } else { SEEDS_FULL };
    let defenses = DefenseSpec::catalog(TOTAL);

    // successes[(attack, layout, defense)] over the seed set.
    let mut successes: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
    let mut counters_agg: BTreeMap<&'static str, u64> = BTreeMap::new();

    for layout in LAYOUTS {
        header(&format!(
            "Exploit probability, layout {} ({} seeds): successes / seeds",
            layout.name,
            seeds.len()
        ));
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>12}",
            "attack", "none", "catt", "anvil", "softtrr", "blockhammer"
        );
        for attack in ATTACKS {
            let mut row = format!("{:<12}", attack.name());
            for defense in &defenses {
                let mut wins = 0u64;
                for &seed in seeds {
                    let mut kernel = machine(seed, *layout, *defense);
                    if attack.run(&mut kernel).expect("attack runs") {
                        wins += 1;
                    }
                    harvest_defense_counters(&kernel, &mut counters_agg);
                }
                successes.insert((attack.name(), layout.name, defense.name()), wins);
                let width = if defense.name() == "blockhammer" { 12 } else { 8 };
                row.push_str(&format!("{:>width$}", format!("{wins}/{}", seeds.len())));
            }
            println!("{row}");
        }
    }

    // The refactor's earn-your-keep assertions: the two new defenses must
    // measurably reduce exploit probability somewhere in the matrix.
    for new_defense in ["softtrr", "blockhammer"] {
        let reduced = ATTACKS.iter().any(|attack| {
            LAYOUTS.iter().any(|layout| {
                let none = successes[&(attack.name(), layout.name, "none")];
                let defended = successes[&(attack.name(), layout.name, new_defense)];
                none > 0 && defended < none
            })
        });
        assert!(reduced, "{new_defense} must beat `none` in at least one matrix cell");
    }

    header("Benign overhead vs no defense (2 SPEC-shaped workloads, sim time)");
    let baseline_ns = benign_sim_ns(DefenseSpec::None);
    let mut overheads: BTreeMap<&'static str, f64> = BTreeMap::new();
    for defense in defenses.iter().filter(|d| !d.is_none()) {
        let delta = overhead_delta_percent(*defense, baseline_ns);
        overheads.insert(defense.name(), delta);
        kv(&format!("{} Δ sim-time", defense.name()), format!("{delta:+.3}%"));
    }

    let mut tel = Counters::new("exp-matrix");
    tel.set_u64("matrix", "attacks", ATTACKS.len() as u64);
    tel.set_u64("matrix", "defenses", defenses.len() as u64);
    tel.set_u64("matrix", "layouts", LAYOUTS.len() as u64);
    tel.set_u64("matrix", "cells", (ATTACKS.len() * defenses.len() * LAYOUTS.len()) as u64);
    tel.set_u64("matrix", "seeds_per_cell", seeds.len() as u64);
    tel.set_bool("matrix", "quick", quick);
    for key in ["softtrr_refreshes", "blockhammer_blacklisted", "anvil_alarms"] {
        tel.set_u64("defense", key, counters_agg.get(key).copied().unwrap_or(0));
    }
    tel.set_u64(
        "defense",
        "activations_denied",
        counters_agg.get("activations_denied").copied().unwrap_or(0),
    );
    for (name, delta) in &overheads {
        tel.set_f64("overhead", &format!("{name}_delta_percent"), *delta);
    }
    for ((attack, layout, defense), wins) in &successes {
        tel.set_u64(&format!("{attack}-{layout}"), defense, *wins);
    }
    emit_telemetry(&tel);

    println!("\nOK: SoftTRR and BlockHammer each suppress at least one attack the stock");
    println!("machine loses to; the whole zoo ran through one Defense trait, zero");
    println!("per-defense wiring in the attack drivers.");
}
