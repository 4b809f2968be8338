//! # dmfb-core
//!
//! Yield enhancement of digital microfluidics-based biochips using space
//! redundancy and local reconfiguration — a full Rust implementation of
//! Su, Chakrabarty and Pamula (DATE 2005).
//!
//! This facade crate re-exports the whole workspace and adds the
//! [`Biochip`] pipeline: a single entry point that designs a
//! defect-tolerant array, injects manufacturing defects, attempts local
//! reconfiguration, and reports yield metrics.
//!
//! ## Quick start
//!
//! ```
//! use dmfb_core::{Biochip, DtmbKind};
//!
//! // A DTMB(2,6) biochip with ~100 primary cells.
//! let chip = Biochip::dtmb(DtmbKind::Dtmb26A, 100);
//!
//! // Estimate manufacturing yield at 95% per-cell survival probability,
//! // with and without local reconfiguration.
//! let report = chip.yield_report(0.95, 2_000, 42);
//! assert!(report.reconfigured_yield.point() > report.raw_yield);
//! ```
//!
//! ## Layered API
//!
//! Everything the pipeline uses is public through the re-exported crates:
//! [`grid`], [`graph`], [`sim`], [`defects`], [`reconfig`],
//! [`yield_model`], [`bioassay`]. The [`prelude`] pulls in the names needed
//! by typical experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod pipeline;
pub mod prelude;
pub mod search;
pub mod spec;

pub use engine::{DefectModel, Engine, Estimate, Estimator, Query};
pub use pipeline::{Biochip, YieldReport};
pub use search::{CandidateScore, SearchConfig, SearchReport, SearchSpace};
pub use spec::{EngineSpec, SchemeSpec, Tier};

pub use dmfb_bioassay as bioassay;
pub use dmfb_defects as defects;
pub use dmfb_graph as graph;
pub use dmfb_grid as grid;
pub use dmfb_reconfig as reconfig;
pub use dmfb_sim as sim;
pub use dmfb_yield as yield_model;

pub use dmfb_grid::{HexCoord, HexDir, Region};
pub use dmfb_reconfig::dtmb::DtmbKind;
pub use dmfb_reconfig::{CellRole, DefectTolerantArray, ReconfigPolicy};
