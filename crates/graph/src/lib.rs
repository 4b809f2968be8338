//! The bitset matching kernel behind biochip reconfiguration, and the
//! word-parallel kernels of the Monte-Carlo engine.
//!
//! The paper decides whether a defect pattern can be tolerated by building a
//! bipartite graph `BG(A, B, E)` — `A` the faulty primary cells, `B` the
//! fault-free spare cells, an edge when the two cells are physically
//! adjacent — and computing a *maximal matching*: "If this maximal matching
//! covers all nodes in A, it implies that all faulty cells can be replaced
//! by their adjacent fault-free spare cells through local reconfiguration."
//!
//! This crate is that matching kernel, plus the word-parallel sampling
//! kernels of the Monte-Carlo engine:
//!
//! * [`BitsetGraph`] / [`BitsetMatcher`] — a
//!   `u64`-word bitset adjacency layout and an allocation-free
//!   Hopcroft–Karp over it, with a Hall-violation early exit; every
//!   reconfiguration verdict and plan comes from it,
//! * [`HallViolation`] — the Hall-theorem deficiency witness
//!   [`BitsetMatcher::hall_witness`] extracts, explaining *why* a defect
//!   pattern is untolerable,
//! * [`words`] — word-level SWAR kernels for the transposed
//!   64-trials-per-word Monte-Carlo engine: lane-parallel xoshiro256++
//!   sampling ([`words::LaneRngs`]) and the per-lane re-threshold
//!   ([`words::pack_ge_per_lane`]), both counting each lane's faults as
//!   they pack, with AVX-512F and AVX2 bodies chosen at runtime.
//!
//! The adjacency-list matchers the test suites check this kernel against
//! live in the dev-only `dmfb_oracle` crate.
//!
//! # Example
//!
//! ```
//! use dmfb_graph::{BitsetGraph, BitsetMatcher};
//!
//! // Two faulty cells, two spares; fault 0 can use either spare,
//! // fault 1 only spare 1.
//! let mut g = BitsetGraph::new(2, 2);
//! g.add_edge(0, 0);
//! g.add_edge(0, 1);
//! g.add_edge(1, 1);
//! let mut matcher = BitsetMatcher::new();
//! assert!(matcher.covers_all_left(&g));
//! let plan: Vec<_> = matcher.left_pairs().collect();
//! assert_eq!(plan, vec![(0, 0), (1, 1)]);
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one place: the
// runtime-dispatched AVX-512F and AVX2 kernels in `words::x86` and their
// dispatch, where `std::arch` intrinsics are unavoidably `unsafe fn`.
// Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod words;

pub use bitset::{BitsetGraph, BitsetMatcher, HallViolation};
