//! Bioassay execution on digital microfluidic biochips.
//!
//! The paper's Section 7 evaluates the defect-tolerant design on a real
//! workload: **multiplexed in-vitro diagnostics** — colorimetric
//! enzyme-kinetic assays (Trinder's reaction) measuring glucose, lactate,
//! glutamate and pyruvate in human physiological fluids. This crate builds
//! that workload end to end:
//!
//! * [`droplet`] — droplet contents and the electrowetting transport model.
//! * [`chip`] — functional resources: dispensing ports, mixers, optical
//!   detectors, and the chip description tying them to the array.
//! * [`router`] — BFS droplet routing around faulty cells with fluidic
//!   (droplet non-interference) constraints, on a dense grid of cell
//!   slots.
//! * [`schedule`] — a discrete-time executor running concurrent assay
//!   operations on the array; it costs transports from one BFS distance
//!   field per mixer rendezvous rather than routing each one.
//! * [`kinetics`] — Trinder-reaction kinetics: two-stage Michaelis–Menten
//!   enzyme cascade, Beer–Lambert absorbance at 545 nm, photodiode noise,
//!   and concentration estimation with a calibration curve.
//! * [`assay`] — the assay protocol library (glucose, lactate, glutamate,
//!   pyruvate) and the multiplexed in-vitro diagnostics protocol.
//! * [`layout`] — the fabricated-chip layout (108 assay cells, no spares)
//!   and its DTMB(2,6) mapping with 252 primary and 91 spare cells
//!   (Figure 12(a)).
//! * [`feasibility`] — the operational question: does a *reconfigured*
//!   chip still schedule the protocol within its timing budget? This is
//!   what the operational-yield engine in `dmfb-yield` asks per
//!   Monte-Carlo trial.
//!
//! # Example
//!
//! ```
//! use dmfb_bioassay::layout::ivd_dtmb26_chip;
//!
//! let chip = ivd_dtmb26_chip();
//! assert_eq!(chip.array.primary_count(), 252);
//! assert_eq!(chip.array.spare_count(), 91);
//! assert_eq!(chip.assay_cells.len(), 108);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod assay;
pub mod chip;
pub mod droplet;
pub mod feasibility;
pub mod kinetics;
pub mod layout;
pub mod router;
pub mod schedule;

pub use assay::{Analyte, AssayOutcome, MultiplexedIvd};
pub use chip::ChipDescription;
pub use feasibility::{FeasibilityChecker, Infeasibility, TimingBudget};
pub use schedule::{plan_protocol, ProtocolSchedule, ScheduledOp};
