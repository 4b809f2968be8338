//! Operational feasibility: can a reconfigured chip still run its assay?
//!
//! The paper's closing argument is not just that a DTMB array can be
//! *reconfigured* around its defects, but that the reconfigured chip still
//! **performs the multiplexed in-vitro-diagnostics protocol** within its
//! timing requirements. Matching feasibility is necessary but not
//! sufficient: a chip can have a perfect primary→spare assignment and
//! still be operationally dead because catastrophic faults elsewhere in
//! the array sever every droplet route, or because the detours and
//! remapped resources stretch the protocol past its deadline.
//!
//! [`FeasibilityChecker`] owns a chip description, an assay batch and a
//! [`TimingBudget`], and answers that question per fault state: it remaps
//! every resource through the reconfiguration plan, routes every droplet
//! transport around the faults ([`plan_protocol`]), and compares the
//! resulting makespan against the budget. The operational-yield engine in
//! `dmfb-yield` calls it once per Monte-Carlo trial.

use crate::assay::MultiplexedIvd;
use crate::chip::ChipDescription;
use crate::droplet::ElectrowettingModel;
use crate::schedule::{plan_protocol, ExecError, ProtocolSchedule};
use dmfb_defects::DefectMap;
use dmfb_reconfig::ReconfigPlan;
use std::fmt;

/// The protocol deadline an operational chip must meet.
///
/// # Example
///
/// ```
/// use dmfb_bioassay::feasibility::TimingBudget;
///
/// let budget = TimingBudget { max_makespan_s: 250.0 };
/// assert!(budget.allows(249.9));
/// assert!(!budget.allows(250.1));
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimingBudget {
    /// Maximum tolerated protocol makespan in seconds.
    pub max_makespan_s: f64,
}

impl TimingBudget {
    /// The paper-style relative budget: the fault-free chip's makespan for
    /// `batch`, stretched by `slack` (e.g. `1.5` = "reconfiguration may
    /// cost up to 50% extra protocol time").
    ///
    /// # Errors
    ///
    /// Returns the scheduling error if even the fault-free chip cannot run
    /// the batch (which indicates a broken layout, not a defect problem).
    ///
    /// # Example
    ///
    /// ```
    /// use dmfb_bioassay::feasibility::TimingBudget;
    /// use dmfb_bioassay::layout::ivd_dtmb26_chip;
    /// use dmfb_bioassay::MultiplexedIvd;
    ///
    /// let chip = ivd_dtmb26_chip();
    /// let budget =
    ///     TimingBudget::with_slack(&chip, &MultiplexedIvd::standard_panel(), 1.5).unwrap();
    /// assert!(budget.max_makespan_s.is_finite());
    /// ```
    pub fn with_slack(
        chip: &ChipDescription,
        batch: &MultiplexedIvd,
        slack: f64,
    ) -> Result<Self, ExecError> {
        let clean = plan_protocol(
            chip,
            &DefectMap::new(),
            None,
            &ElectrowettingModel::default(),
            batch,
        )?;
        Ok(TimingBudget {
            max_makespan_s: clean.makespan_s() * slack,
        })
    }

    /// Whether a makespan meets the budget.
    #[must_use]
    pub fn allows(&self, makespan_s: f64) -> bool {
        makespan_s <= self.max_makespan_s
    }
}

/// Why a chip instance is operationally infeasible.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum Infeasibility {
    /// The protocol cannot execute at all: a resource is dead with no
    /// replacement, or a droplet route is severed.
    Exec(ExecError),
    /// The protocol schedules, but not within the timing budget.
    OverBudget {
        /// The achievable makespan, seconds.
        makespan_s: f64,
        /// The budget it exceeds, seconds.
        budget_s: f64,
    },
}

impl fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Infeasibility::Exec(e) => write!(f, "protocol cannot execute: {e}"),
            Infeasibility::OverBudget {
                makespan_s,
                budget_s,
            } => write!(
                f,
                "protocol makespan {makespan_s:.1}s exceeds budget {budget_s:.1}s"
            ),
        }
    }
}

impl std::error::Error for Infeasibility {}

impl From<ExecError> for Infeasibility {
    fn from(e: ExecError) -> Self {
        Infeasibility::Exec(e)
    }
}

/// Decides, per fault state, whether a chip still runs its assay batch
/// within budget. Built once, queried once per Monte-Carlo trial.
///
/// # Example
///
/// ```
/// use dmfb_bioassay::feasibility::{FeasibilityChecker, TimingBudget};
/// use dmfb_bioassay::layout::ivd_dtmb26_chip;
/// use dmfb_bioassay::MultiplexedIvd;
/// use dmfb_defects::DefectMap;
///
/// let checker = FeasibilityChecker::new(
///     ivd_dtmb26_chip(),
///     MultiplexedIvd::standard_panel(),
///     TimingBudget { max_makespan_s: f64::INFINITY },
/// );
/// // A fault-free chip is always operational.
/// let schedule = checker.check(&DefectMap::new(), None).unwrap();
/// assert_eq!(schedule.ops.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct FeasibilityChecker {
    chip: ChipDescription,
    batch: MultiplexedIvd,
    budget: TimingBudget,
}

impl FeasibilityChecker {
    /// Creates a checker for `chip` running `batch` under `budget`.
    #[must_use]
    pub fn new(chip: ChipDescription, batch: MultiplexedIvd, budget: TimingBudget) -> Self {
        FeasibilityChecker {
            chip,
            batch,
            budget,
        }
    }

    /// The chip under evaluation.
    #[must_use]
    pub fn chip(&self) -> &ChipDescription {
        &self.chip
    }

    /// The timing budget.
    #[must_use]
    pub fn budget(&self) -> TimingBudget {
        self.budget
    }

    /// Checks one chip instance: the true fault state plus the
    /// reconfiguration plan that is supposed to hide it. Returns the
    /// proving schedule, or why the chip is operationally dead.
    ///
    /// # Errors
    ///
    /// [`Infeasibility::Exec`] when the protocol cannot execute at all,
    /// [`Infeasibility::OverBudget`] when it schedules but too slowly.
    pub fn check(
        &self,
        defects: &DefectMap,
        plan: Option<&ReconfigPlan>,
    ) -> Result<ProtocolSchedule, Infeasibility> {
        let schedule = plan_protocol(
            &self.chip,
            defects,
            plan,
            &ElectrowettingModel::default(),
            &self.batch,
        )?;
        let makespan = schedule.makespan_s();
        if !self.budget.allows(makespan) {
            return Err(Infeasibility::OverBudget {
                makespan_s: makespan,
                budget_s: self.budget.max_makespan_s,
            });
        }
        Ok(schedule)
    }

    /// Boolean convenience over [`FeasibilityChecker::check`].
    #[must_use]
    pub fn is_feasible(&self, defects: &DefectMap, plan: Option<&ReconfigPlan>) -> bool {
        self.check(defects, plan).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use dmfb_reconfig::{attempt_reconfiguration, ReconfigPolicy};

    fn checker(budget: TimingBudget) -> FeasibilityChecker {
        FeasibilityChecker::new(
            layout::ivd_dtmb26_chip(),
            MultiplexedIvd::standard_panel(),
            budget,
        )
    }

    #[test]
    fn clean_chip_is_feasible_under_relative_budget() {
        let chip = layout::ivd_dtmb26_chip();
        let budget =
            TimingBudget::with_slack(&chip, &MultiplexedIvd::standard_panel(), 1.5).unwrap();
        let c = checker(budget);
        assert!(c.is_feasible(&DefectMap::new(), None));
        assert!(c.chip().validate().is_ok());
    }

    #[test]
    fn unplanned_fault_on_mixer_is_infeasible() {
        let c = checker(TimingBudget {
            max_makespan_s: f64::INFINITY,
        });
        let defects = DefectMap::from_cells([c.chip().mixers[0].rendezvous()]);
        let err = c.check(&defects, None).unwrap_err();
        assert!(matches!(err, Infeasibility::Exec(_)), "{err}");
        assert!(err.to_string().contains("cannot execute"));
    }

    #[test]
    fn reconfiguration_restores_feasibility() {
        let chip = layout::ivd_dtmb26_chip();
        let budget =
            TimingBudget::with_slack(&chip, &MultiplexedIvd::standard_panel(), 2.0).unwrap();
        let c = checker(budget);
        let mut defects = DefectMap::from_cells([c.chip().mixers[0].rendezvous()]);
        defects.close_shorts();
        let plan = attempt_reconfiguration(
            &c.chip().array,
            &defects,
            &ReconfigPolicy::UsedCells(c.chip().assay_cells.iter().collect()),
        )
        .unwrap();
        assert!(!c.is_feasible(&defects, None));
        assert!(c.is_feasible(&defects, Some(&plan)));
    }

    #[test]
    fn impossible_budget_rejects_even_clean_chips() {
        let c = checker(TimingBudget {
            max_makespan_s: 0.001,
        });
        let err = c.check(&DefectMap::new(), None).unwrap_err();
        assert!(matches!(err, Infeasibility::OverBudget { .. }));
        assert!(err.to_string().contains("exceeds budget"));
    }

    #[test]
    fn budget_scales_with_clean_makespan() {
        let chip = layout::ivd_dtmb26_chip();
        let panel = MultiplexedIvd::standard_panel();
        let b1 = TimingBudget::with_slack(&chip, &panel, 1.0).unwrap();
        let b2 = TimingBudget::with_slack(&chip, &panel, 2.0).unwrap();
        assert!((b2.max_makespan_s - 2.0 * b1.max_makespan_s).abs() < 1e-9);
        // Slack 1.0 exactly admits the clean chip.
        let c = checker(b1);
        assert!(c.is_feasible(&DefectMap::new(), None));
    }
}
