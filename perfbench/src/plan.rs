//! Workload definitions: everything a run submits, derived from the
//! workload seed alone.
//!
//! The seed picks the module seeds of module-sweep, the tenant order of
//! every round of both campaign workloads, and the Table 4 runner and
//! machine seeds. Spray-pool tenants keep fixed module seeds: with three
//! tenants, three seed-drawn modules would set the whole run's work, and
//! runs at different seeds would differ by more than any change measured
//! against them. Nothing here names an implementation knob: backend, flip
//! engine and trial isolation stay at their library defaults, so a change
//! of default is measured the way users get it.

use std::fmt;
use std::str::FromStr;

use cta_attack::recording::RECORDING_LABEL;
use cta_attack::{CampaignRequest, RecordedAttack, RecordingSpec, SprayAttack, TemplatingAttack};
use cta_core::{DefenseSpec, SystemBuilder};
use cta_dram::{BlockHammerParams, SoftTrrParams};
use cta_vm::Kernel;
use cta_workloads::{phoronix, spec2006, Runner, WorkloadSpec};

/// Seed the stored output digests were recorded with.
pub const DEFAULT_SEED: u64 = 1;
/// Executor worker threads (the host has two cores).
pub const WORKERS: usize = 2;
/// Campaigns kept outstanding by the closed-loop client.
pub const OUTSTANDING: usize = 2;
/// Pooled parents per (worker, tenant).
pub const PARENTS_PER_WORKER: usize = 2;
/// `Runner::compare_many` threads for Table 4.
pub const TABLE4_THREADS: usize = 2;
/// Campaigns, in request order, folded into a campaign workload's digest.
pub const DIGEST_CAMPAIGNS: usize = 12;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pool-hit spray campaigns from three CTA tenants.
    SprayPool,
    /// Boot-per-trial templating campaigns across four machine kinds.
    ModuleSweep,
    /// The Table 4 overhead harness.
    Table4,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SprayPool, Workload::ModuleSweep, Workload::Table4];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SprayPool => "spray-pool",
            Workload::ModuleSweep => "module-sweep",
            Workload::Table4 => "table4",
        }
    }

    /// Output digest of a run at [`DEFAULT_SEED`] (see [`crate::digest`]).
    pub fn stored_digest(self) -> u64 {
        match self {
            Workload::SprayPool => 0xf572_808d_029d_8589,
            Workload::ModuleSweep => 0x3bd2_7603_dc89_cab1,
            Workload::Table4 => 0xea06_8ba2_7111_f6fd,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            format!("unknown workload `{s}` (expected spray-pool, module-sweep or table4)")
        })
    }
}

/// The machine a campaign runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Machine {
    /// Undefended stock kernel.
    Stock,
    /// CTA-protected kernel with cell types profiled at boot.
    Cta,
    /// Stock kernel under SoftTRR.
    SoftTrr,
    /// Stock kernel under BlockHammer.
    BlockHammer,
}

impl Machine {
    /// Stable name, used as the tenant name in module-sweep.
    pub fn name(self) -> &'static str {
        match self {
            Machine::Stock => "stock",
            Machine::Cta => "cta",
            Machine::SoftTrr => "softtrr",
            Machine::BlockHammer => "blockhammer",
        }
    }

    fn defense(self) -> DefenseSpec {
        match self {
            Machine::Stock | Machine::Cta => DefenseSpec::None,
            Machine::SoftTrr => DefenseSpec::SoftTrr(SoftTrrParams::default()),
            Machine::BlockHammer => DefenseSpec::BlockHammer(BlockHammerParams::default()),
        }
    }
}

/// One campaign a workload submits.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Submitting tenant.
    pub tenant: String,
    /// Machine kind the campaign runs on.
    pub machine: Machine,
    /// Attack, machine size and trial seeds.
    pub spec: RecordingSpec,
}

impl Planned {
    /// The executor request. The merged telemetry carries the scoped
    /// path's label so the two paths compare byte for byte.
    pub fn request(&self) -> CampaignRequest {
        let mut request = CampaignRequest::new(self.tenant.clone(), self.spec.clone());
        request.target.defense = self.machine.defense();
        request.label = RECORDING_LABEL.to_string();
        request
    }
}

const SPRAY_TENANTS: [(&str, u64); 3] = [("alpha", 11), ("bravo", 23), ("charlie", 47)];
const SPRAY_TRIALS: usize = 8;
const SWEEP_MACHINES: [Machine; 4] =
    [Machine::Stock, Machine::Cta, Machine::SoftTrr, Machine::BlockHammer];
const SWEEP_TRIALS: u64 = 4;

/// SplitMix64 finalizer: the seed-derivation function of the benchmark.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-chosen permutation of `0..n` (Fisher–Yates).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The campaign request stream of a campaign workload: rounds in which
/// every tenant submits once, each round in a seed-chosen order. A fresh
/// order per round mixes which campaigns run side by side, so one run
/// does not hinge on one pairing of tenants.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    workload: Workload,
    seed: u64,
    tenants: usize,
}

impl CampaignPlan {
    /// The plan of `workload` (spray-pool or module-sweep) at `seed`.
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::Table4`], which submits no campaigns.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let tenants = match workload {
            Workload::SprayPool => SPRAY_TENANTS.len(),
            Workload::ModuleSweep => SWEEP_MACHINES.len(),
            Workload::Table4 => panic!("table4 submits no campaigns"),
        };
        CampaignPlan { workload, seed, tenants }
    }

    /// Campaigns in one round over every tenant: the warm-up round.
    pub fn round(&self) -> usize {
        self.tenants
    }

    /// Campaign `index` of the stream.
    pub fn campaign(&self, index: usize) -> Planned {
        let round = (index / self.tenants) as u64;
        let slot =
            permutation(mix(self.seed, 0x0707_0000 + round), self.tenants)[index % self.tenants];
        match self.workload {
            Workload::SprayPool => {
                // One fixed module seed per tenant: after warm-up every
                // trial is served from a pooled parent.
                let (tenant, module_seed) = SPRAY_TENANTS[slot];
                let mut spec = RecordingSpec::new(
                    RecordedAttack::Spray(SprayAttack::default()),
                    vec![module_seed; SPRAY_TRIALS],
                );
                spec.memory_bytes = 16 << 20;
                spec.protected = true;
                spec.profile_cells = true;
                // The default spray lands more flips than the default ring
                // holds; transcripts must stay lossless.
                spec.flip_log_capacity = 1 << 16;
                Planned { tenant: tenant.to_string(), machine: Machine::Cta, spec }
            }
            Workload::ModuleSweep => {
                let machine = SWEEP_MACHINES[slot];
                // A fresh module seed per trial: every trial boots.
                let seeds = (0..SWEEP_TRIALS)
                    .map(|t| mix(self.seed, 0x4D53_0000 + index as u64 * SWEEP_TRIALS + t))
                    .collect();
                let mut spec = RecordingSpec::new(
                    RecordedAttack::Templating(TemplatingAttack::default()),
                    seeds,
                );
                spec.protected = machine == Machine::Cta;
                spec.profile_cells = machine == Machine::Cta;
                // A CTA templating trial lands ~198k flips.
                spec.flip_log_capacity = 1 << 18;
                Planned { tenant: machine.name().to_string(), machine, spec }
            }
            Workload::Table4 => unreachable!("rejected by CampaignPlan::new"),
        }
    }
}

/// The Table 4 harness of one run: 27 specs on a stock and a CTA machine.
#[derive(Debug, Clone)]
pub struct Table4Plan {
    /// Every `spec2006()` + `phoronix()` spec.
    pub specs: Vec<WorkloadSpec>,
    /// One repetition per cell, access patterns seeded from the run.
    pub runner: Runner,
    /// Module seed of every machine.
    pub machine_seed: u64,
}

impl Table4Plan {
    /// The Table 4 plan at `seed`.
    pub fn new(seed: u64) -> Self {
        let mut specs = spec2006();
        specs.extend(phoronix());
        Table4Plan {
            specs,
            runner: Runner { repetitions: 1, seed: mix(seed, 0x7434) },
            machine_seed: mix(seed, 0x4D43),
        }
    }

    /// Boots the stock (`false`) or CTA (`true`) machine of a cell.
    pub fn machine(&self, protected: bool) -> Kernel {
        SystemBuilder::new(16 << 20)
            .ptp_bytes(1 << 20)
            .seed(self.machine_seed)
            .protected(protected)
            .build()
            .expect("a 16 MiB Table 4 machine boots")
    }

    /// Simulated accesses of one pass over every cell.
    pub fn accesses_per_pass(&self) -> u64 {
        2 * self.specs.iter().map(|s| s.access_ops).sum::<u64>()
    }
}
