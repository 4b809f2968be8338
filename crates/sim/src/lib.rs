//! Seeded, parallel Monte-Carlo engine and statistics.
//!
//! The paper estimates the yield of DTMB(2,6), DTMB(3,6) and DTMB(4,4)
//! designs by Monte-Carlo simulation: "After 10000 simulation runs, the
//! yield of this microfluidic array is determined from the proportion of
//! successful reconfigurations." This crate supplies that machinery in a
//! reusable form:
//!
//! * [`MonteCarlo`] — runs a success/failure experiment for a fixed number
//!   of trials, sequentially or across threads, with per-trial RNGs derived
//!   deterministically from one master seed (results are reproducible and
//!   independent of thread count).
//! * [`BernoulliEstimate`] — success-proportion estimate with Wilson
//!   confidence intervals.
//! * [`Summary`] — streaming mean/variance for real-valued observables.
//! * [`SeedSequence`] — SplitMix64 stream of decorrelated sub-seeds.
//! * [`stratified`] — the defect-count-stratified rare-event estimator
//!   ([`StratifiedMonteCarlo`]): conditions on the binomial defect count,
//!   spends trials only where the verdict is uncertain, and reports a
//!   variance plus the equivalent naive trial count.
//! * [`sweep`] — deterministic parallel job orchestration
//!   ([`parallel_map`]) and the [`auto_threads`] core-count default used
//!   wherever a thread count is optional (`0` = one worker per core).
//!
//! # Example
//!
//! ```
//! use dmfb_sim::MonteCarlo;
//! use rand::Rng;
//!
//! // Estimate P(success) of a biased coin.
//! let mc = MonteCarlo::new(10_000, 42);
//! let est = mc.run_parallel(1, |rng| rng.gen_bool(0.25));
//! assert!((est.point() - 0.25).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mc;
mod seeds;
mod stats;
pub mod stratified;
pub mod sweep;

pub use mc::MonteCarlo;
pub use seeds::SeedSequence;
pub use stats::{wilson_interval, BernoulliEstimate, Summary};
pub use stratified::{StratifiedConfig, StratifiedEstimate, StratifiedMonteCarlo, StratumEstimate};
pub use sweep::{auto_threads, parallel_map};
