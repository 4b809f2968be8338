//! Yield estimation for defect-tolerant DMFB designs.
//!
//! Implements the paper's Section 6 in full:
//!
//! * [`analytical`] — closed forms: the no-redundancy baseline `Y = pⁿ`,
//!   the DTMB(1,6) cluster model `Y = (p⁷ + 7p⁶(1−p))^(n/6)` (paper
//!   Figure 7), and binomial helpers.
//! * [`effective`] — the paper's *effective yield* metric
//!   `EY = Y·n/N = Y/(1+RR)` that trades yield against array area
//!   (Figure 10), with crossover detection between designs.
//! * [`scheme_yield`] — [`SchemeYield`]: the matching-based Monte-Carlo
//!   estimator behind Figures 9 and 13, generic over the redundancy scheme
//!   (hex DTMB, square DTMB, spare-row), so the paper's cross-scheme
//!   comparisons are one sweep.
//! * [`operational`] — [`OperationalYield`]: the Section 7 case study's
//!   third tier. Per trial, the defect map and the reconfiguration
//!   assignment are pushed through the bioassay router/scheduler to ask
//!   whether the *reconfigured* chip still runs the multiplexed IVD panel
//!   in budget — raw, reconfigured and operational yield side by side.
//! * [`sweep`] — parameter sweeps producing the curves behind each figure.
//!
//! Two orthogonal extensions ride on every engine above: the
//! **defect-count-stratified rare-event estimator**
//! (`estimate_survival_stratified` on [`SchemeYield`] and
//! [`OperationalYield`]), which conditions on the
//! binomial defect count so the high-survival regime no longer wastes
//! trials on defect-free chips, and **arbitrary defect samplers**
//! (`estimate_with_defects` / `estimate_with`), which let the clustered
//! wafer-defect model from `dmfb-defects` drive any scheme.
//!
//! # Example
//!
//! ```
//! use dmfb_yield::analytical;
//!
//! // Paper Section 7: without redundancy, a 108-cell chip yields only
//! // ~0.3378 even at 99% cell survival.
//! let y = analytical::no_redundancy_yield(0.99, 108);
//! assert!((y - 0.3378).abs() < 5e-4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analytical;
pub mod campaign;
pub mod effective;
pub mod operational;
pub mod profile;
pub mod scheme_yield;
pub mod sweep;

pub use campaign::{
    named_campaign, CampaignReport, CampaignRunner, NamedCampaign, StepVerdict, NAMED_CAMPAIGNS,
};
pub use effective::effective_yield;
pub use operational::{
    AssayPanel, OperationalEstimate, OperationalYield, StratifiedOperationalEstimate, TrialVerdict,
};
pub use profile::{tolerance_profile, ToleranceProfile};
pub use scheme_yield::{
    MonteCarloYield, SchemeYield, StratifiedPoint, YieldPoint, DEFAULT_BLOCK_TRIALS,
};
pub use sweep::YieldCurve;

/// Tests of the hexagonal engine ([`MonteCarloYield`]), kept under the
/// module path they have always had.
#[cfg(test)]
mod monte_carlo {
    mod tests;
}
