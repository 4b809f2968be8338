//! Slow, independent references the production matching kernel (the
//! bitset Hopcroft–Karp in `dmfb_graph`, driven by `dmfb_reconfig`'s
//! `TrialEvaluator`) is tested against: the adjacency-list
//! [`BipartiteGraph`], the list matchers [`hopcroft_karp`] and
//! [`augmenting_path_matching`] with their [`Matching`], the Hall witness
//! [`hall_violation`], and the per-map rebuilds
//! [`local::is_reconfigurable`] and [`square_dtmb::is_reconfigurable`].
//! Crates use it as a dev-dependency only.
//!
//! ```
//! use dmfb_oracle::{hopcroft_karp, BipartiteGraph};
//!
//! // Two faulty cells fight over one spare.
//! let mut g = BipartiteGraph::new(2, 1);
//! g.add_edge(0, 0);
//! g.add_edge(1, 0);
//! assert!(!hopcroft_karp(&g).covers_all_left(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bipartite;
mod bitset;
mod hall;
mod incremental;
pub mod local;
mod matching;
pub mod square_dtmb;

pub use bipartite::BipartiteGraph;
pub use hall::hall_violation;
pub use matching::{augmenting_path_matching, hopcroft_karp, Matching};
