//! The adjacency-list reference for local reconfiguration (paper
//! Section 6): the bipartite model rebuilt from the lattice for every
//! defect map, and Hopcroft–Karp over it.

use crate::{hopcroft_karp, BipartiteGraph};
use dmfb_defects::DefectMap;
use dmfb_grid::HexCoord;
use dmfb_reconfig::{DefectTolerantArray, ReconfigPolicy};
use std::collections::BTreeMap;

/// The paper's bipartite model `BG(A, B, E)` of one defect map: left
/// node `a` is `faulty[a]`, right node `b` is `spares[b]`.
#[derive(Clone, Debug)]
pub struct Model<C> {
    /// The faulty primaries that must be replaced.
    pub faulty: Vec<C>,
    /// The live spares adjacent to any of them, in order of discovery.
    pub spares: Vec<C>,
    /// An edge per adjacent (faulty primary, live spare) pair.
    pub graph: BipartiteGraph,
}

impl<C: Copy + Ord> Model<C> {
    /// Builds the model over `faulty`, where `live_spares(c)` lists the
    /// live spares adjacent to `c`.
    pub fn new<I: IntoIterator<Item = C>>(faulty: Vec<C>, live_spares: impl Fn(C) -> I) -> Self {
        let mut spares = Vec::new();
        let mut index = BTreeMap::new();
        let mut edges = Vec::new();
        for (a, &cell) in faulty.iter().enumerate() {
            for spare in live_spares(cell) {
                let b = *index.entry(spare).or_insert_with(|| {
                    spares.push(spare);
                    spares.len() - 1
                });
                edges.push((a, b));
            }
        }
        let mut graph = BipartiteGraph::new(faulty.len(), spares.len());
        for (a, b) in edges {
            graph.add_edge(a, b);
        }
        Model {
            faulty,
            spares,
            graph,
        }
    }

    /// Whether some matching covers every faulty primary.
    #[must_use]
    pub fn is_tolerable(&self) -> bool {
        hopcroft_karp(&self.graph).covers_all_left(&self.graph)
    }
}

/// The bipartite model of `defects` on `array` under `policy`: the
/// in-scope faulty primaries, sorted, against their live spares.
#[must_use]
pub fn bipartite_model(
    array: &DefectTolerantArray,
    defects: &DefectMap,
    policy: &ReconfigPolicy,
) -> Model<HexCoord> {
    let faulty = defects
        .faulty_cells()
        .filter(|c| array.is_primary(*c) && policy.requires(*c))
        .collect();
    Model::new(faulty, |c| {
        array.adjacent_spares(c).filter(|s| !defects.is_faulty(*s))
    })
}

/// Whether every in-scope faulty primary of `array` can be assigned a
/// distinct adjacent fault-free spare under `defects`.
#[must_use]
pub fn is_reconfigurable(
    array: &DefectTolerantArray,
    defects: &DefectMap,
    policy: &ReconfigPolicy,
) -> bool {
    bipartite_model(array, defects, policy).is_tolerable()
}
