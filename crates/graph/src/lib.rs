//! Bipartite matching and graph utilities for biochip reconfiguration.
//!
//! The paper decides whether a defect pattern can be tolerated by building a
//! bipartite graph `BG(A, B, E)` — `A` the faulty primary cells, `B` the
//! fault-free spare cells, an edge when the two cells are physically
//! adjacent — and computing a *maximal matching*: "If this maximal matching
//! covers all nodes in A, it implies that all faulty cells can be replaced
//! by their adjacent fault-free spare cells through local reconfiguration."
//!
//! This crate provides:
//!
//! * [`BipartiteGraph`] — the adjacency structure,
//! * [`BitsetGraph`] / [`BitsetMatcher`] / [`hopcroft_karp_bitset`] — a
//!   `u64`-word bitset adjacency layout and an allocation-free
//!   Hopcroft–Karp over it, with a Hall-violation early exit; this is the
//!   Monte-Carlo hot path,
//! * [`hopcroft_karp`] — `O(E √V)` maximum matching over the adjacency
//!   lists, behind plan-producing reconfiguration and the Hall witness,
//! * [`augmenting_path_matching`] — the simple Hungarian-style matcher used
//!   as a cross-check oracle in tests and ablation benches,
//! * [`hall_violation`] — a Hall-theorem deficiency witness explaining *why*
//!   a defect pattern is untolerable,
//! * [`UnionFind`] — a disjoint-set forest (no caller in the workspace;
//!   `DefectMap::close_shorts` does not use it),
//! * [`Matching`] — a validated matching with coverage queries,
//! * [`words`] — word-level SWAR kernels for the transposed
//!   64-trials-per-word Monte-Carlo engine: lane-parallel xoshiro256++
//!   sampling ([`words::LaneRngs`]) and bit-sliced popcount
//!   classification ([`words::LaneCounter`]).
//!
//! # Example
//!
//! ```
//! use dmfb_graph::{BipartiteGraph, hopcroft_karp};
//!
//! // Two faulty cells, two spares; fault 0 can use either spare,
//! // fault 1 only spare 1.
//! let mut g = BipartiteGraph::new(2, 2);
//! g.add_edge(0, 0);
//! g.add_edge(0, 1);
//! g.add_edge(1, 1);
//! let m = hopcroft_karp(&g);
//! assert_eq!(m.len(), 2);
//! assert!(m.covers_all_left(&g));
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one place: the
// runtime-dispatched AVX2 kernels in `words::x86`, where `std::arch`
// intrinsics are unavoidably `unsafe fn`. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bipartite;
mod bitset;
mod hall;
mod matching;
mod union_find;
pub mod words;

pub use bipartite::BipartiteGraph;
pub use bitset::{hopcroft_karp_bitset, BitsetGraph, BitsetMatcher};
pub use hall::{hall_violation, HallViolation};
pub use matching::{augmenting_path_matching, hopcroft_karp, Matching};
pub use union_find::UnionFind;
