//! Manufacturing defect models and stochastic injection for digital
//! microfluidic biochips.
//!
//! Following the paper's Section 4, faults are classified like analog
//! circuits: **catastrophic** (dielectric breakdown, shorts between
//! adjacent electrodes, opens in the electrode/control-source connection)
//! and **parametric** (geometry deviations that only fail when they exceed
//! tolerance).
//!
//! These layers live here:
//!
//! * Fault taxonomy and per-chip [`DefectMap`]s ([`fault`], [`map`]).
//! * Stochastic injection ([`injection`]): the paper's i.i.d. cell-failure
//!   assumption ([`injection::Bernoulli`]), the exact-`m`-failures mode used
//!   for the Figure 13 case study ([`injection::ExactCount`]), and a
//!   clustered-spot extension used only for ablation studies.
//! * Transposed block sampling ([`block`]): up to 64 lock-step per-trial
//!   generators emitting one bit-sliced fault word per cell — the sampler
//!   tier of the word-parallel trial engine, byte-identical to the scalar
//!   per-trial streams.
//! * Clustered wafer defects ([`clustered`]): negative-binomial cluster
//!   seeds spreading over any lattice [`dmfb_grid::Topology`] — the
//!   "real wafers cluster" model the scheme-generic yield engines accept
//!   as a drop-in defect sampler.
//! * Scripted campaigns ([`scenario`]): a line-oriented DSL compiling
//!   named adversarial fault campaigns into deterministic, seeded damage
//!   trajectories with replayable per-step markers — the targeted-damage
//!   counterpart to the stochastic injectors, built on the same models.
//!
//! # Example
//!
//! ```
//! use dmfb_defects::injection::{Bernoulli, InjectionModel};
//! use dmfb_grid::Region;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let chip = Region::parallelogram(10, 10);
//! let mut rng = StdRng::seed_from_u64(1);
//! let defects = Bernoulli::from_survival(0.95).inject(&chip, &mut rng);
//! assert!(defects.fault_count() <= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod clustered;
pub mod fault;
pub mod injection;
pub mod map;
pub mod operational;
pub mod parametric;
pub mod scenario;

pub use clustered::ClusteredDefects;
pub use fault::{CatastrophicDefect, DefectCause, ParametricDefect};
pub use map::DefectMap;
pub use scenario::{Scenario, ScenarioError, StepAction, StepRecord, Trajectory};
