//! Campaign evaluation: scripted adversarial scenarios pushed through the
//! three-tier yield pipeline.
//!
//! A [`Scenario`] compiles into a
//! deterministic trajectory of cumulative
//! [`DefectMap`](dmfb_defects::DefectMap)s (see
//! `dmfb_defects::scenario`). This module feeds each trajectory step to
//! [`OperationalYield`] twice:
//!
//! * **deterministically** — [`OperationalYield::evaluate_map`] on the
//!   targeted damage alone: *is this exact wounded chip still
//!   reconfigurable, and does it still run the assay in budget?*
//! * **statistically** — [`OperationalYield::estimate_with`] under the
//!   targeted damage merged with i.i.d. Bernoulli background defects:
//!   *what fraction of manufactured chips survive this attack?* Every
//!   step reuses the same `(trials, seed)`, so the background draws are
//!   common random numbers across steps and the three survival curves
//!   degrade monotonically as the scripted damage accumulates.
//!
//! The statistical path runs on the operational block runner: each of 64
//! lanes draws its background on its own trial RNG, and a lane the word
//! tiers cannot decide takes the scalar verdict on its own merged map,
//! causes included (parametric drift does not block droplet routes).
//! Both paths are byte-identical across thread counts and block widths,
//! which is what lets the CLI's `campaign-replay` gate compare whole
//! reports.

use crate::operational::{AssayPanel, OperationalEstimate, OperationalYield, TrialVerdict};
use dmfb_defects::injection::{Bernoulli, InjectionModel};
use dmfb_defects::scenario::{Scenario, Trajectory};
use dmfb_grid::Region;

/// A built-in campaign: name, one-line summary, and its DSL script.
#[derive(Clone, Copy, Debug)]
pub struct NamedCampaign {
    /// CLI-facing campaign name.
    pub name: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    /// The scenario DSL source (parses by construction; tests enforce it).
    pub script: &'static str,
}

/// The built-in campaigns shipped with `dmfb campaign`.
///
/// Coordinates reference the DTMB(2,6) IVD case-study chip: its dispenser
/// (reservoir) ports sit at axial `(0, 1)`, `(0, 17)`, `(7, 1)` and
/// `(7, 13)`, so `reservoir-cluster` blasts the neighbourhoods a real
/// fluidic failure would hit first.
pub const NAMED_CAMPAIGNS: &[NamedCampaign] = &[
    NamedCampaign {
        name: "edge-column-wipeout",
        summary: "a salvo of point strikes, then a process excursion kills the west columns",
        script: "\
scenario edge-column-wipeout
step calm
step salvo 24
step wipe-column 0
step wipe-column 1
",
    },
    NamedCampaign {
        name: "reservoir-cluster",
        summary: "clustered blasts centred on the IVD chip's dispenser ports",
        script: "\
scenario reservoir-cluster
step calm
step cluster 0 1 radius 2 peak 0.9
step cluster 0 17 radius 2 peak 0.9
step cluster 7 13 radius 1 peak 0.8
",
    },
    NamedCampaign {
        name: "wear-trajectory",
        summary: "in-service dielectric wear accrued over three service intervals",
        script: "\
scenario wear-trajectory
step calm
step wear mtbf 40000 stress 1 hours 1000
step wear mtbf 40000 stress 2 hours 1000
step wear mtbf 40000 stress 4 hours 2000
",
    },
    NamedCampaign {
        name: "parametric-drift",
        summary: "geometry drift widening until deviations punch through tolerance",
        script: "\
scenario parametric-drift
step calm
step drift sigma 0.04 tolerance 0.1
step drift sigma 0.05 tolerance 0.1
",
    },
];

/// Looks up a built-in campaign script by name and parses it.
#[must_use]
pub fn named_campaign(name: &str) -> Option<Scenario> {
    NAMED_CAMPAIGNS.iter().find(|c| c.name == name).map(|c| {
        Scenario::parse(c.script).expect("built-in campaign scripts parse by construction")
    })
}

/// The deterministic and statistical verdicts for one campaign step.
#[derive(Clone, Debug)]
pub struct StepVerdict {
    /// 0-based step index (matches the trajectory's marker `step=`).
    pub idx: usize,
    /// Verdict on the targeted damage alone — the exact wounded chip.
    pub deterministic: TrialVerdict,
    /// Three-tier survival under targeted damage + Bernoulli background.
    pub estimate: OperationalEstimate,
}

/// One evaluated campaign: the damage trajectory plus per-step verdicts.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Background cell-survival probability of the statistical tier.
    pub p: f64,
    /// Monte-Carlo trials per step.
    pub trials: u32,
    /// The compiled damage trajectory (markers, cumulative maps).
    pub trajectory: Trajectory,
    /// Per-step verdicts, one per trajectory step.
    pub steps: Vec<StepVerdict>,
}

impl CampaignReport {
    /// The newline-terminated NA-0090 marker stream of the trajectory.
    #[must_use]
    pub fn markers(&self) -> String {
        self.trajectory.markers()
    }

    /// The per-step verdict table as CSV (header + one line per step).
    /// This is the byte string the golden-file and replay gates compare,
    /// so its format is stable.
    #[must_use]
    pub fn table(&self) -> String {
        fn yn(b: bool) -> &'static str {
            if b {
                "yes"
            } else {
                "no"
            }
        }
        let mut out = String::from("step,action,faults,reconf,op,raw,reconfigured,operational\n");
        for (v, rec) in self.steps.iter().zip(self.trajectory.steps.iter()) {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6},{:.6}\n",
                v.idx,
                rec.action.label(),
                rec.map.fault_count(),
                yn(v.deterministic.reconfigured),
                yn(v.deterministic.operational),
                v.estimate.raw.point(),
                v.estimate.reconfigured.point(),
                v.estimate.operational.point(),
            ));
        }
        out
    }
}

/// Runs scenarios against the IVD case-study chip through both verdict
/// paths. Construction cost (chip + evaluator) is paid once per runner.
#[derive(Clone, Debug)]
pub struct CampaignRunner {
    engine: OperationalYield,
    region: Region,
}

impl CampaignRunner {
    /// A runner over the paper's DTMB(2,6) IVD case-study chip running
    /// `panel`.
    #[must_use]
    pub fn ivd(panel: AssayPanel) -> Self {
        let engine = OperationalYield::ivd(panel);
        let region = engine.chip().array.region().clone();
        CampaignRunner { engine, region }
    }

    /// Sets the worker-thread count of the statistical tier (`0` = one
    /// per available core). Results are byte-identical for any value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// Dry-runs `scenario` (no damage, `ok` markers only) — the happy
    /// path of the NA-0090 triads.
    #[must_use]
    pub fn rehearse(&self, scenario: &Scenario, seed: u64) -> Trajectory {
        scenario.rehearse(&self.region, seed)
    }

    /// Executes `scenario` live and evaluates every step: deterministic
    /// verdict on the targeted damage, plus three-tier survival under
    /// background survival probability `p` with `trials` Monte-Carlo
    /// trials per step (common random numbers across steps).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` (the CLI validates first).
    #[must_use]
    pub fn run(&self, scenario: &Scenario, p: f64, trials: u32, seed: u64) -> CampaignReport {
        assert!((0.0..=1.0).contains(&p), "survival p={p} out of [0, 1]");
        let trajectory = scenario.execute(&self.region, seed);
        let background = Bernoulli::from_survival(p);
        let steps = trajectory
            .steps
            .iter()
            .map(|rec| {
                let deterministic = self.engine.evaluate_map(&rec.map);
                let estimate = self.engine.estimate_with(trials, seed, |rng| {
                    background.inject(&self.region, rng).merged(&rec.map)
                });
                StepVerdict {
                    idx: rec.idx,
                    deterministic,
                    estimate,
                }
            })
            .collect();
        CampaignReport {
            p,
            trials,
            trajectory,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_campaigns_parse_and_match_their_names() {
        assert!(NAMED_CAMPAIGNS.len() >= 3, "at least three named campaigns");
        for c in NAMED_CAMPAIGNS {
            let s = named_campaign(c.name).expect("lookup succeeds");
            assert_eq!(s.name(), c.name, "script header matches listing name");
            assert!(s.steps().len() >= 2);
        }
        assert!(named_campaign("no-such-campaign").is_none());
    }

    #[test]
    fn report_is_deterministic_and_thread_invariant() {
        let scenario = named_campaign("edge-column-wipeout").unwrap();
        let a = CampaignRunner::ivd(AssayPanel::StandardIvd)
            .with_threads(1)
            .run(&scenario, 0.99, 64, 7);
        let b = CampaignRunner::ivd(AssayPanel::StandardIvd)
            .with_threads(3)
            .run(&scenario, 0.99, 64, 7);
        assert_eq!(a.markers(), b.markers());
        assert_eq!(a.table(), b.table());
    }

    #[test]
    fn survival_degrades_monotonically_along_the_trajectory() {
        // Common random numbers: each step reuses the same background
        // draws, and the targeted map only grows, so every tier's success
        // count is non-increasing.
        let scenario = named_campaign("reservoir-cluster").unwrap();
        let report = CampaignRunner::ivd(AssayPanel::StandardIvd)
            .with_threads(1)
            .run(&scenario, 0.99, 64, 11);
        for pair in report.steps.windows(2) {
            assert!(
                pair[1].estimate.operational.successes()
                    <= pair[0].estimate.operational.successes()
            );
            assert!(
                pair[1].estimate.reconfigured.successes()
                    <= pair[0].estimate.reconfigured.successes()
            );
            assert!(pair[1].estimate.raw.successes() <= pair[0].estimate.raw.successes());
        }
    }

    #[test]
    fn table_has_one_line_per_step_plus_header() {
        let scenario = named_campaign("parametric-drift").unwrap();
        let report = CampaignRunner::ivd(AssayPanel::StandardIvd)
            .with_threads(1)
            .run(&scenario, 0.995, 32, 3);
        let table = report.table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), scenario.steps().len() + 1);
        assert!(lines[0].starts_with("step,action,"));
    }
}
