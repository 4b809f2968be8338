//! Convenience re-exports for typical experiments.
//!
//! ```
//! use dmfb_core::prelude::*;
//!
//! let chip = Biochip::dtmb(DtmbKind::Dtmb26A, 100);
//! let y = chip.yield_report(0.95, 500, 1).reconfigured_yield;
//! assert!(y.point() > 0.0);
//! ```

pub use crate::{Biochip, YieldReport};

pub use dmfb_grid::{CellMap, HexCoord, HexDir, Region, SquareCoord, SquareRegion, Topology};

pub use dmfb_defects::injection::{Bernoulli, ExactCount, InjectionModel};
pub use dmfb_defects::scenario::{Scenario, ScenarioError, StepAction, Trajectory};
pub use dmfb_defects::ClusteredDefects;
pub use dmfb_defects::{CatastrophicDefect, DefectCause, DefectMap};

pub use dmfb_reconfig::dtmb::DtmbKind;
pub use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
pub use dmfb_reconfig::{
    attempt_reconfiguration, scheme_audit, CellRole, DefectTolerantArray, ReconfigPlan,
    ReconfigPolicy, RedundancyScheme, SchemeStructure, SquarePattern, TrialEvaluator,
};

pub use dmfb_sim::{
    auto_threads, parallel_map, BernoulliEstimate, MonteCarlo, StratifiedConfig,
    StratifiedEstimate, StratifiedMonteCarlo, Summary,
};

pub use dmfb_yield::analytical::{dtmb16_yield, independent_repair_yield, no_redundancy_yield};
pub use dmfb_yield::{
    effective_yield, named_campaign, tolerance_profile, AssayPanel, CampaignReport, CampaignRunner,
    MonteCarloYield, NamedCampaign, OperationalEstimate, OperationalYield, SchemeYield,
    StratifiedOperationalEstimate, StratifiedPoint, ToleranceProfile, TrialVerdict, YieldPoint,
    NAMED_CAMPAIGNS,
};

pub use dmfb_bioassay::layout::{fabricated_ivd_chip, ivd_dtmb26_chip, used_cells_policy};
pub use dmfb_bioassay::schedule::Executor;
pub use dmfb_bioassay::{
    Analyte, ChipDescription, FeasibilityChecker, Infeasibility, MultiplexedIvd, ProtocolSchedule,
    TimingBudget,
};
