//! Interstitial redundancy designs and reconfiguration engines.
//!
//! The heart of the paper: defect-tolerant microfluidic biochip designs
//! `DTMB(s, p)` place spare cells in the *interstitial sites* of a
//! hexagonal array so that each non-boundary primary cell is adjacent to
//! `s` spares and each spare is adjacent to `p` primaries (Definition 1).
//! A faulty primary is then replaced by a neighbouring spare — *local
//! reconfiguration* — with the assignment computed as a maximal bipartite
//! matching (paper Section 6, Figure 8).
//!
//! Modules:
//!
//! * [`dtmb`] — the four published designs (plus the alternative DTMB(2,6)
//!   variant of Figure 4(b)) as infinite lattice patterns instantiated over
//!   any region, with degree audits and redundancy ratios (Table 1).
//! * [`array`](mod@crate::array) — [`DefectTolerantArray`]: a region plus a role (primary /
//!   spare) per cell.
//! * [`local`] — reconfiguration plans, success policies and
//!   Hall-violation failure witnesses, with the one-shot
//!   [`attempt_reconfiguration`].
//! * [`incremental`] — [`TrialEvaluator`]: the one matching kernel behind
//!   every verdict, plan and witness. It precomputes the primary↔spare
//!   neighbour structure once per array and evaluates each defect map,
//!   trial or survival-probability grid with reusable bitset-matching
//!   buffers.
//! * [`block`](mod@crate::block) — the tiered bit-parallel trial engine:
//!   64 trials per word through sample → classify → match tiers
//!   ([`TrialBlock`]), byte-identical to the scalar path at any block
//!   width or thread count.
//! * [`scheme`] — the cross-cutting [`RedundancyScheme`] abstraction:
//!   every design (hex DTMB, square DTMB, spare rows) compiled into one
//!   assignment-under-adjacency-conflicts structure so all of them ride
//!   the same incremental fast engine.
//! * [`shifted`] — the boundary spare-row baseline with its cascade of
//!   "shifted replacements" (Figure 2), including cost accounting.
//!
//! # Example
//!
//! ```
//! use dmfb_reconfig::dtmb::DtmbKind;
//! use dmfb_grid::Region;
//!
//! let array = DtmbKind::Dtmb16.instantiate(&Region::parallelogram(14, 14));
//! let audit = array.audit().unwrap();
//! assert_eq!(audit.spares_per_interior_primary, (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod block;
pub mod dtmb;
pub mod incremental;
pub mod local;
pub mod scheme;
pub mod shifted;
pub mod square_dtmb;

pub use array::{CellRole, DefectTolerantArray, DegreeAudit};
pub use block::{BlockStats, TrialBlock};
pub use incremental::{TrialEvaluator, TrialScratch};
pub use local::{attempt_reconfiguration, ReconfigFailure, ReconfigPlan, ReconfigPolicy};
pub use scheme::{scheme_audit, RedundancyScheme, SchemeStructure};
pub use shifted::{ShiftFailure, ShiftPlan, SpareRowArray};
pub use square_dtmb::SquarePattern;

/// Formats the first few items of a list for error messages, eliding the
/// rest (`a, b, c, … 4 more`). Empty lists render as `none`.
pub(crate) fn format_cell_list<T: std::fmt::Display>(items: &[T]) -> String {
    use std::fmt::Write as _;
    const SHOWN: usize = 8;
    if items.is_empty() {
        return "none".to_string();
    }
    let mut out = String::new();
    for (i, item) in items.iter().take(SHOWN).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{item}");
    }
    if items.len() > SHOWN {
        let _ = write!(out, ", … {} more", items.len() - SHOWN);
    }
    out
}
