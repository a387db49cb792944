//! Software RowHammer defenses hooked into the DRAM activation path.
//!
//! A [`RowDefense`] installed on a [`crate::DramModule`] is consulted on
//! every batch of row activations *before* the batch lands in the
//! per-window activation counter. The defense returns a [`Verdict`]:
//! allow the batch, throttle it (deny the remainder), or permit part of it
//! and then issue a targeted refresh of suspected aggressors — exactly the
//! three moves the software-defense literature uses (ANVIL samples and
//! refreshes, SoftTRR refreshes neighbors of protected page-table rows,
//! BlockHammer rate-limits blacklisted rows).
//!
//! The hook sits at the same seam as the module's own threshold check, so
//! a defense sees precisely what the hardware sees: backing rows (remap
//! already resolved), within-window counters, and the simulated clock.
//! Two contract points keep the simulation deterministic and honest:
//!
//! - **No defense, no change.** A module without a defense installed (and
//!   one with a pure-observer defense that always allows) takes the exact
//!   pre-hook code path: byte-identical contents, flip logs, clocks, and
//!   telemetry.
//! - **Defense refreshes are ordinary refreshes.** A targeted refresh
//!   issued from a verdict is accounted exactly like a manual
//!   [`crate::DramModule::refresh_neighbors_of`] call: victims recharge at
//!   the current clock, the aggressor's window counter resets, and no
//!   simulated time is charged (the refresh rides the normal command
//!   stream). `tests/defense_differential.rs` pins both properties.
//!
//! Throttled (denied) activations still cost `tRC`: the attacker issued
//! the request and the memory controller stalls it; the activation simply
//! never reaches the array, so it cannot contribute hammer progress.

use std::collections::HashSet;

use cta_telemetry::{Group, StatSource};

use crate::geometry::RowId;

/// What the module shows a defense on each activation-hook consultation.
///
/// All rows are *backing* rows: remapping is resolved before the hook
/// fires, so a defense reasons about the physical topology that
/// disturbance acts on.
#[derive(Debug, Clone)]
pub struct ActivationCtx<'a> {
    /// The row being activated.
    pub row: RowId,
    /// Activations proposed in this batch (not yet counted).
    pub count: u64,
    /// The row's within-window activation count before this batch.
    pub window_activations: u64,
    /// Current simulated time, nanoseconds.
    pub now_ns: u64,
    /// The module's disturbance threshold (activations per window).
    pub hammer_threshold: u64,
    /// Bank-adjacent neighbor rows of [`Self::row`] — the rows a
    /// disturbance would flip.
    pub neighbors: &'a [RowId],
}

/// A defense's decision about one activation batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Count the whole batch.
    Allow,
    /// Count at most `permitted` activations and deny the rest of the
    /// batch. Denied activations are tallied in
    /// [`DefenseStats::activations_denied`].
    Throttle {
        /// Activations of the batch allowed to land.
        permitted: u64,
    },
    /// Count `permitted` activations, then issue a targeted refresh of
    /// each row in `targets` (neighbors recharge, the target's window
    /// counter resets). The module re-consults the defense with whatever
    /// remains of the batch, so a defense can split even one huge burst.
    Refresh {
        /// Activations of the batch allowed to land before the refresh.
        permitted: u64,
        /// Suspected aggressor rows to refresh the neighbors of.
        targets: Vec<RowId>,
    },
}

/// Module-side accounting of a defense's interventions, kept separate
/// from [`crate::DramStats`] so installing a defense never perturbs the
/// pre-existing telemetry groups.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DefenseStats {
    /// Activations presented to the hook (allowed + denied).
    pub activations_seen: u64,
    /// Activations denied by throttle verdicts.
    pub activations_denied: u64,
    /// Targeted refreshes issued from refresh verdicts.
    pub targeted_refreshes: u64,
    /// Hook consultations (one per verdict returned).
    pub consultations: u64,
}

/// A software RowHammer defense observing the DRAM activation stream.
///
/// Implementations must be deterministic: the verdict may depend only on
/// the context and the defense's own state, never on ambient randomness
/// or wall-clock time — campaigns replay byte-identically only if every
/// installed defense does.
pub trait RowDefense {
    /// Short stable identifier, e.g. `"softtrr"`.
    fn name(&self) -> &'static str;

    /// Decides the fate of one activation batch.
    fn on_activation(&mut self, ctx: &ActivationCtx<'_>) -> Verdict;

    /// Marks a (backing) row as protected — the kernel calls this for
    /// every page-table frame it allocates. Defenses that don't track
    /// victims ignore it.
    fn on_protect_row(&mut self, _row: RowId) {}

    /// Defense-specific counters, emitted under the `defense` telemetry
    /// group alongside [`DefenseStats`]. Keys must be stable and
    /// snake_case.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Clones the defense behind the trait object — forks of a defended
    /// module carry an independent copy of the defense state.
    fn box_clone(&self) -> Box<dyn RowDefense>;
}

impl Clone for Box<dyn RowDefense> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

impl std::fmt::Debug for Box<dyn RowDefense> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RowDefense({})", self.name())
    }
}

/// A defense snapshot for telemetry: module-side [`DefenseStats`] plus
/// the defense's own counters, recorded as the `defense` group. Only
/// emitted when a defense is installed, so undefended snapshots are
/// byte-identical to pre-hook ones.
#[derive(Debug, Clone)]
pub struct DefenseSnapshot {
    /// The installed defense's [`RowDefense::name`].
    pub name: &'static str,
    /// Module-side intervention accounting.
    pub stats: DefenseStats,
    /// The defense's own counters ([`RowDefense::counters`]).
    pub counters: Vec<(&'static str, u64)>,
}

impl StatSource for DefenseSnapshot {
    fn group(&self) -> &'static str {
        "defense"
    }

    fn record(&self, g: &mut Group) {
        g.set_text("name", self.name);
        g.add_u64("activations_seen", self.stats.activations_seen);
        g.add_u64("activations_denied", self.stats.activations_denied);
        g.add_u64("targeted_refreshes", self.stats.targeted_refreshes);
        g.add_u64("consultations", self.stats.consultations);
        for (key, value) in &self.counters {
            g.add_u64(key, *value);
        }
    }
}

// ---------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------

/// A pure observer: watches the activation stream, never intervenes.
///
/// Exists to prove the hook itself is free of side effects — a module
/// with an observer installed must behave byte-identically to one with
/// no defense at all (flips, clocks, contents, DRAM telemetry).
#[derive(Debug, Default, Clone)]
pub struct ObserverDefense {
    batches: u64,
    hottest_seen: u64,
}

impl ObserverDefense {
    /// Creates an observer with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RowDefense for ObserverDefense {
    fn name(&self) -> &'static str {
        "observer"
    }

    fn on_activation(&mut self, ctx: &ActivationCtx<'_>) -> Verdict {
        self.batches += 1;
        self.hottest_seen = self.hottest_seen.max(ctx.window_activations + ctx.count);
        Verdict::Allow
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("observer_batches", self.batches), ("observer_hottest_seen", self.hottest_seen)]
    }

    fn box_clone(&self) -> Box<dyn RowDefense> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// ANVIL-style sampler
// ---------------------------------------------------------------------

/// Parameters for [`AnvilSamplerDefense`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnvilSamplerParams {
    /// Within-window activation count that flags a row as an aggressor
    /// when a sample observes it.
    pub activation_threshold: u64,
    /// Global activations between samples (the performance-counter
    /// interrupt period). Smaller samples more often.
    pub sample_every: u64,
}

impl Default for AnvilSamplerParams {
    fn default() -> Self {
        // A 16 Ki-activation threshold flags a hammer well before the
        // disturbance threshold; sampling every 4096 activations
        // guarantees at least one sample per threshold-sized burst.
        AnvilSamplerParams { activation_threshold: 16 * 1024, sample_every: 4096 }
    }
}

/// ANVIL as an inline activation-hook defense: counts global activations
/// and, at every sampling point, inspects the current row's within-window
/// count; past the threshold it refreshes the row's neighbors (losing the
/// accumulated hammer progress).
///
/// The DRAM module consults the sampler on every activation batch, so no
/// caller-driven polling loop is needed; this is ANVIL's performance-
/// counter interrupt modelled as a fixed activation period.
///
/// **Burst splitting.** A verdict never permits activations *past* the
/// next sampling point: a batch that crosses one is cut there
/// ([`Verdict::Refresh`] with `permitted` up to the sample point — with
/// an empty target list when the row looks cold — so the module
/// re-consults with the remainder). A sampler that instead permitted the
/// whole batch before sampling would let a single full-threshold burst
/// land unmitigated, which is exactly how the defense matrix's `anvil`
/// column used to collapse to `none` against one-shot hammer bursts.
#[derive(Debug, Clone)]
pub struct AnvilSamplerDefense {
    params: AnvilSamplerParams,
    seen: u64,
    alarms: u64,
}

impl AnvilSamplerDefense {
    /// Creates the sampler; `sample_every` of zero is treated as 1.
    pub fn new(params: AnvilSamplerParams) -> Self {
        let params = AnvilSamplerParams {
            sample_every: params.sample_every.max(1),
            activation_threshold: params.activation_threshold.max(1),
        };
        AnvilSamplerDefense { params, seen: 0, alarms: 0 }
    }

    /// Alarms raised so far (rows flagged at a sampling point).
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

impl RowDefense for AnvilSamplerDefense {
    fn name(&self) -> &'static str {
        "anvil"
    }

    fn on_activation(&mut self, ctx: &ActivationCtx<'_>) -> Verdict {
        let until_sample = self.params.sample_every - self.seen % self.params.sample_every;
        if ctx.count < until_sample {
            // No sampling point falls inside this batch.
            self.seen += ctx.count;
            return Verdict::Allow;
        }
        // Cut the batch at the sampling point and inspect the row there;
        // the module re-consults with whatever remains, so even one
        // threshold-sized burst is examined every `sample_every`
        // activations.
        self.seen += until_sample;
        if ctx.window_activations + until_sample >= self.params.activation_threshold {
            self.alarms += 1;
            return Verdict::Refresh { permitted: until_sample, targets: vec![ctx.row] };
        }
        Verdict::Refresh { permitted: until_sample, targets: Vec::new() }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("anvil_alarms", self.alarms)]
    }

    fn box_clone(&self) -> Box<dyn RowDefense> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// SoftTRR
// ---------------------------------------------------------------------

/// Parameters for [`SoftTrrDefense`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftTrrParams {
    /// Within-window activation count of an aggressor adjacent to a
    /// protected row that triggers a targeted refresh. Must be below the
    /// module's hammer threshold to protect anything.
    pub trr_threshold: u64,
}

impl Default for SoftTrrParams {
    fn default() -> Self {
        // One eighth of the default hammer threshold (128 Ki): ample
        // margin while staying insensitive to benign row reuse.
        SoftTrrParams { trr_threshold: 16 * 1024 }
    }
}

/// SoftTRR: software target-row-refresh of page-table rows.
///
/// The kernel registers every page-table frame's row via
/// [`RowDefense::on_protect_row`]. When any row *adjacent to a protected
/// row* accumulates `trr_threshold` activations within a refresh window,
/// the defense permits exactly up to the threshold and then refreshes the
/// aggressor's neighborhood — resetting its hammer progress long before
/// the disturbance threshold. Rows not adjacent to protected rows are
/// never touched, so non-page-table victims see stock behavior.
#[derive(Debug, Default, Clone)]
pub struct SoftTrrDefense {
    params: SoftTrrParams,
    protected: HashSet<u64>,
    refreshes: u64,
}

impl SoftTrrDefense {
    /// Creates the defense; `trr_threshold` of zero is treated as 1.
    pub fn new(params: SoftTrrParams) -> Self {
        let params = SoftTrrParams { trr_threshold: params.trr_threshold.max(1) };
        SoftTrrDefense { params, protected: HashSet::new(), refreshes: 0 }
    }

    /// Targeted refreshes issued so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }
}

impl RowDefense for SoftTrrDefense {
    fn name(&self) -> &'static str {
        "softtrr"
    }

    fn on_activation(&mut self, ctx: &ActivationCtx<'_>) -> Verdict {
        if !ctx.neighbors.iter().any(|n| self.protected.contains(&n.0)) {
            return Verdict::Allow;
        }
        let before = ctx.window_activations;
        if before + ctx.count < self.params.trr_threshold {
            return Verdict::Allow;
        }
        // Let the aggressor reach exactly the TRR threshold, then refresh
        // its neighborhood; the module re-consults with the remainder, so
        // even a single burst of hammer_threshold activations is split
        // into sub-threshold chunks.
        let permitted = self.params.trr_threshold.saturating_sub(before).min(ctx.count);
        self.refreshes += 1;
        Verdict::Refresh { permitted, targets: vec![ctx.row] }
    }

    fn on_protect_row(&mut self, row: RowId) {
        self.protected.insert(row.0);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("softtrr_refreshes", self.refreshes),
            ("softtrr_protected_rows", self.protected.len() as u64),
        ]
    }

    fn box_clone(&self) -> Box<dyn RowDefense> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// BlockHammer
// ---------------------------------------------------------------------

/// Parameters for [`BlockHammerDefense`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHammerParams {
    /// Within-window activation count past which a row is blacklisted and
    /// further activations are denied for the rest of the window. Must be
    /// below the module's hammer threshold to protect anything.
    pub blacklist_threshold: u64,
}

impl Default for BlockHammerParams {
    fn default() -> Self {
        // One sixteenth of the default hammer threshold: far above any
        // benign per-window reuse the workload suite produces, far below
        // what hammering needs.
        BlockHammerParams { blacklist_threshold: 8 * 1024 }
    }
}

/// BlockHammer-style activation-rate blacklisting.
///
/// Every row gets a per-window activation budget (`blacklist_threshold`);
/// a row that exhausts it is blacklisted for the remainder of the window
/// and further activations are throttled (denied — they still cost `tRC`
/// but never reach the array). Because the budget is below the hammer
/// threshold, a blacklisted row can never disturb its neighbors, for any
/// victim — no knowledge of protected regions required.
#[derive(Debug, Default, Clone)]
pub struct BlockHammerDefense {
    params: BlockHammerParams,
    blacklisted: u64,
}

impl BlockHammerDefense {
    /// Creates the defense; `blacklist_threshold` of zero is treated as 1.
    pub fn new(params: BlockHammerParams) -> Self {
        let params = BlockHammerParams { blacklist_threshold: params.blacklist_threshold.max(1) };
        BlockHammerDefense { params, blacklisted: 0 }
    }
}

impl RowDefense for BlockHammerDefense {
    fn name(&self) -> &'static str {
        "blockhammer"
    }

    fn on_activation(&mut self, ctx: &ActivationCtx<'_>) -> Verdict {
        let budget = self.params.blacklist_threshold;
        let before = ctx.window_activations;
        if before >= budget {
            // Already blacklisted this window.
            return Verdict::Throttle { permitted: 0 };
        }
        if before + ctx.count <= budget {
            return Verdict::Allow;
        }
        // This batch exhausts the budget: one blacklist event per
        // row-window, counted at the transition.
        self.blacklisted += 1;
        Verdict::Throttle { permitted: budget - before }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("blockhammer_blacklisted", self.blacklisted)]
    }

    fn box_clone(&self) -> Box<dyn RowDefense> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(row: u64, count: u64, before: u64, neighbors: &[RowId]) -> ActivationCtx<'_> {
        ActivationCtx {
            row: RowId(row),
            count,
            window_activations: before,
            now_ns: 0,
            hammer_threshold: 128 * 1024,
            neighbors,
        }
    }

    #[test]
    fn observer_always_allows_and_counts() {
        let mut d = ObserverDefense::new();
        let n = [RowId(1), RowId(3)];
        assert_eq!(d.on_activation(&ctx(2, 100, 0, &n)), Verdict::Allow);
        assert_eq!(d.on_activation(&ctx(2, 50, 100, &n)), Verdict::Allow);
        assert_eq!(d.counters(), vec![("observer_batches", 2), ("observer_hottest_seen", 150)]);
    }

    #[test]
    fn anvil_sampler_flags_only_at_sample_points() {
        let p = AnvilSamplerParams { activation_threshold: 5000, sample_every: 4096 };
        let mut d = AnvilSamplerDefense::new(p);
        let n = [RowId(1)];
        // 100 activations: no sample point crossed, hot or not.
        assert_eq!(d.on_activation(&ctx(2, 100, 5000, &n)), Verdict::Allow);
        // Crossing a sample point with a hot row: the batch is cut at the
        // sample point (3996 = 4096 - 100 already seen) and the row is
        // refreshed there — never permitted to finish the burst first.
        let v = d.on_activation(&ctx(2, 4096, 5000, &n));
        assert_eq!(v, Verdict::Refresh { permitted: 3996, targets: vec![RowId(2)] });
        assert_eq!(d.alarms(), 1);
        // Crossing a sample point with a cold row: cut, but no refresh.
        let v = d.on_activation(&ctx(3, 4096, 0, &n));
        assert_eq!(v, Verdict::Refresh { permitted: 4096, targets: Vec::new() });
        assert_eq!(d.counters(), vec![("anvil_alarms", 1)]);
    }

    #[test]
    fn anvil_sampler_splits_a_single_full_threshold_burst() {
        // One burst as large as the module's hammer threshold, replayed
        // the way record_activation_defended re-consults: the row's
        // window count must stay far below the hammer threshold because
        // every crossing of the 16 Ki activation threshold triggers a
        // refresh (window reset) at the next sample point.
        let p = AnvilSamplerParams::default(); // 16 Ki threshold, 4096 sampling
        let mut d = AnvilSamplerDefense::new(p);
        let n = [RowId(1), RowId(3)];
        let hammer_threshold = 128 * 1024;
        let mut remaining: u64 = hammer_threshold;
        let mut window: u64 = 0;
        let mut peak: u64 = 0;
        while remaining > 0 {
            match d.on_activation(&ctx(2, remaining, window, &n)) {
                Verdict::Allow => {
                    window += remaining;
                    remaining = 0;
                }
                Verdict::Throttle { .. } => panic!("sampler never throttles"),
                Verdict::Refresh { permitted, targets } => {
                    assert!(permitted > 0, "sampler must make forward progress");
                    let take = permitted.min(remaining);
                    window += take;
                    remaining -= take;
                    peak = peak.max(window);
                    if targets.contains(&RowId(2)) {
                        window = 0; // module-side window reset
                    }
                }
            }
            peak = peak.max(window);
        }
        assert!(d.alarms() > 0, "a full-threshold burst must raise alarms");
        assert!(
            peak < hammer_threshold / 4,
            "window peaked at {peak}, close enough to {hammer_threshold} to flip"
        );
    }

    #[test]
    fn softtrr_ignores_rows_without_protected_neighbors() {
        let mut d = SoftTrrDefense::new(SoftTrrParams { trr_threshold: 8 });
        d.on_protect_row(RowId(10));
        let n = [RowId(1), RowId(3)];
        assert_eq!(d.on_activation(&ctx(2, 1_000_000, 0, &n)), Verdict::Allow);
        assert_eq!(d.refreshes(), 0);
    }

    #[test]
    fn softtrr_splits_bursts_at_the_trr_threshold() {
        let mut d = SoftTrrDefense::new(SoftTrrParams { trr_threshold: 8 });
        d.on_protect_row(RowId(3));
        let n = [RowId(1), RowId(3)];
        // Below threshold: allowed.
        assert_eq!(d.on_activation(&ctx(2, 7, 0, &n)), Verdict::Allow);
        // Crossing it: permit up to the threshold, refresh the aggressor.
        let v = d.on_activation(&ctx(2, 100, 7, &n));
        assert_eq!(v, Verdict::Refresh { permitted: 1, targets: vec![RowId(2)] });
        // After the (module-side) reset the remainder re-splits from 0.
        let v = d.on_activation(&ctx(2, 99, 0, &n));
        assert_eq!(v, Verdict::Refresh { permitted: 8, targets: vec![RowId(2)] });
        assert_eq!(d.refreshes(), 2);
        assert_eq!(d.protected.len(), 1);
    }

    #[test]
    fn blockhammer_denies_past_the_budget() {
        let mut d = BlockHammerDefense::new(BlockHammerParams { blacklist_threshold: 10 });
        let n = [RowId(1)];
        assert_eq!(d.on_activation(&ctx(2, 10, 0, &n)), Verdict::Allow);
        assert_eq!(d.on_activation(&ctx(2, 5, 8, &n)), Verdict::Throttle { permitted: 2 });
        assert_eq!(d.on_activation(&ctx(2, 5, 10, &n)), Verdict::Throttle { permitted: 0 });
        assert_eq!(d.blacklisted, 1);
        assert_eq!(d.counters(), vec![("blockhammer_blacklisted", 1)]);
    }

    #[test]
    fn zero_parameters_are_clamped() {
        let a = AnvilSamplerDefense::new(AnvilSamplerParams {
            activation_threshold: 0,
            sample_every: 0,
        });
        assert_eq!(a.params.sample_every, 1);
        assert_eq!(a.params.activation_threshold, 1);
        let s = SoftTrrDefense::new(SoftTrrParams { trr_threshold: 0 });
        assert_eq!(s.params.trr_threshold, 1);
        let b = BlockHammerDefense::new(BlockHammerParams { blacklist_threshold: 0 });
        assert_eq!(b.params.blacklist_threshold, 1);
    }

    #[test]
    fn boxed_defenses_clone_independently() {
        let mut d = SoftTrrDefense::new(SoftTrrParams::default());
        d.on_protect_row(RowId(7));
        let boxed: Box<dyn RowDefense> = Box::new(d);
        let mut copy = boxed.clone();
        copy.on_protect_row(RowId(8));
        // The original is unaffected by mutations of the clone.
        assert_eq!(boxed.counters()[1], ("softtrr_protected_rows", 1));
        assert_eq!(copy.counters()[1], ("softtrr_protected_rows", 2));
    }
}
