//! Aggregate statistics over a multi-seed attack campaign.
//!
//! A single attack run answers "does this exploit work against *this*
//! module?"; the paper's claims are statistical, over many modules drawn
//! from the flip distribution. A *campaign* runs one attack per seed and
//! collects the outcomes. Campaigns run on one of two paths that produce
//! byte-identical output: the scoped [`crate::record_campaign`], which
//! boots a fresh kernel per trial, and the long-running
//! [`crate::CampaignExecutor`], which isolates trials on pooled parents.
//! Both fold their outcomes into a [`CampaignSummary`].

use cta_telemetry::{Group, StatSource};

use crate::outcome::AttackOutcome;

/// Aggregate statistics over a campaign's outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Trials run (one per seed).
    pub trials: usize,
    /// Trials where the attacker demonstrated privilege escalation.
    pub successes: usize,
    /// Total disturbance flips across all trials.
    pub total_flips: u64,
    /// Total rows hammered across all trials.
    pub total_rows_hammered: u64,
    /// Total simulated time across all trials, nanoseconds.
    pub total_sim_time_ns: u64,
}

impl CampaignSummary {
    /// Folds outcomes (in campaign order) into aggregate counts.
    pub fn from_outcomes<'a, I>(outcomes: I) -> Self
    where
        I: IntoIterator<Item = &'a AttackOutcome>,
    {
        let mut s = CampaignSummary {
            trials: 0,
            successes: 0,
            total_flips: 0,
            total_rows_hammered: 0,
            total_sim_time_ns: 0,
        };
        for out in outcomes {
            s.trials += 1;
            s.successes += usize::from(out.success());
            s.total_flips += out.flips_induced;
            s.total_rows_hammered += out.rows_hammered;
            s.total_sim_time_ns += out.sim_time_ns;
        }
        s
    }
}

impl StatSource for CampaignSummary {
    fn group(&self) -> &'static str {
        "campaign"
    }

    fn record(&self, g: &mut Group) {
        g.add_u64("trials", self.trials as u64);
        g.add_u64("successes", self.successes as u64);
        g.add_u64("total_flips", self.total_flips);
        g.add_u64("total_rows_hammered", self.total_rows_hammered);
        g.add_u64("total_sim_time_ns", self.total_sim_time_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SprayAttack;
    use cta_core::SystemBuilder;
    use cta_dram::DisturbanceParams;

    #[test]
    fn campaign_summary_counts_successes() {
        let attack = SprayAttack::default();
        let summary = |protected: bool| {
            let outcomes: Vec<AttackOutcome> = (0..8)
                .map(|seed| {
                    let mut kernel = SystemBuilder::new(8 << 20)
                        .ptp_bytes(512 * 1024)
                        .seed(seed)
                        .protected(protected)
                        .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
                        .build()
                        .unwrap();
                    attack.run(&mut kernel).unwrap()
                })
                .collect();
            CampaignSummary::from_outcomes(&outcomes)
        };
        let (stock_summary, cta_summary) = (summary(false), summary(true));
        // Stock falls to some module, CTA to none.
        assert!(stock_summary.successes >= 1, "{stock_summary:?}");
        assert_eq!(cta_summary.successes, 0, "{cta_summary:?}");
        assert_eq!(cta_summary.trials, 8);
        assert!(cta_summary.total_rows_hammered > 0);
    }
}
