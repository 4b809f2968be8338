//! Clustered wafer-defect model: negative-binomial cluster seeds with
//! topology-aware spread.
//!
//! The paper's yield analysis assumes i.i.d. cell failures, but real
//! wafers do not fail that way: contamination events seed *clusters* of
//! defects, and the number of events per chip is over-dispersed relative
//! to a Poisson count (the classic negative-binomial yield models of the
//! semiconductor literature). [`ClusteredDefects`] models both effects:
//!
//! * the **cluster count** per chip is negative-binomial — a compound
//!   (Gamma-mixed Poisson) law sampled as a sum of `dispersion` geometric
//!   variates, so smaller `dispersion` means burstier wafers at the same
//!   mean;
//! * each cluster seeds at a uniformly random cell and **spreads by BFS
//!   over the topology's adjacency** out to `spread_radius`, failing
//!   cells with a probability that decays linearly with hop distance.
//!   Because the spread walks [`Topology::neighbors_of`], the same model
//!   is wafer-realistic on the hexagonal DTMB lattice, the square
//!   interstitial lattice, and anything added later — clusters follow
//!   the actual electrode adjacency instead of a hard-coded geometry.
//!
//! The spread runs over a [`ClusterWalk`]: the topology's cells on dense
//! ids with a CSR neighbour table laid out from a [`SlotIndex`], built
//! once and reused by every trial. A walk built with
//! [`ClusterWalk::with_ids`] reports faults as a compiled evaluator's
//! cell ids, which is how the yield engines decide clustered trials on
//! the word-parallel block engine; [`ClusteredDefects::inject_on`] and
//! [`ClusteredDefects::inject_in`] wrap the same sampler for callers that
//! want a [`DefectMap`].
//!
//! The model is generic over [`Topology`], so it drives the
//! scheme-generic yield engines directly.
//!
//! # Example
//!
//! ```
//! use dmfb_defects::clustered::ClusteredDefects;
//! use dmfb_grid::SquareRegion;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let model = ClusteredDefects::new(2.0, 1, 2, 0.8);
//! let mut rng = StdRng::seed_from_u64(7);
//! let map = model.inject_in(&SquareRegion::rect(20, 20), &mut rng);
//! // Clusters are local: every failed cell is within the region.
//! assert!(map.fault_count() <= 400);
//! ```

use crate::injection::InjectionModel;
use crate::DefectMap;
use dmfb_grid::{Lattice, Region, SlotIndex, Topology};
use rand::Rng;

/// Negative-binomial clustered defect model, generic over the lattice
/// topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusteredDefects {
    mean_clusters: f64,
    dispersion: u32,
    spread_radius: u32,
    peak_probability: f64,
}

impl ClusteredDefects {
    /// Creates the model.
    ///
    /// * `mean_clusters` — expected contamination events per chip;
    /// * `dispersion` — the negative-binomial shape `r ≥ 1`: the count is
    ///   a sum of `r` geometric variates with mean `mean_clusters / r`
    ///   each, so variance is `mean·(1 + mean/r)`; small `r` = bursty
    ///   wafers, large `r` → Poisson-like counts;
    /// * `spread_radius` — BFS hops a cluster reaches from its seed;
    /// * `peak_probability` — failure probability at the seed, decaying
    ///   linearly to zero at `spread_radius + 1` hops.
    ///
    /// # Panics
    ///
    /// Panics if `mean_clusters < 0`, `dispersion == 0`, or
    /// `peak_probability` is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        mean_clusters: f64,
        dispersion: u32,
        spread_radius: u32,
        peak_probability: f64,
    ) -> Self {
        assert!(
            mean_clusters >= 0.0 && mean_clusters.is_finite(),
            "mean_clusters must be non-negative and finite"
        );
        assert!(dispersion >= 1, "dispersion must be at least 1");
        assert!(
            (0.0..=1.0).contains(&peak_probability),
            "peak probability must be in [0, 1]"
        );
        ClusteredDefects {
            mean_clusters,
            dispersion,
            spread_radius,
            peak_probability,
        }
    }

    /// Expected contamination events per chip.
    #[must_use]
    pub fn mean_clusters(&self) -> f64 {
        self.mean_clusters
    }

    /// The negative-binomial shape parameter `r`.
    #[must_use]
    pub fn dispersion(&self) -> u32 {
        self.dispersion
    }

    /// BFS spread radius in lattice hops.
    #[must_use]
    pub fn spread_radius(&self) -> u32 {
        self.spread_radius
    }

    /// Failure probability at the cluster seed.
    #[must_use]
    pub fn peak_probability(&self) -> f64 {
        self.peak_probability
    }

    /// Failure probability at BFS depth `d` from a seed: linear decay
    /// from the peak to zero at `spread_radius + 1` hops.
    #[must_use]
    pub fn probability_at(&self, depth: u32) -> f64 {
        if depth > self.spread_radius {
            return 0.0;
        }
        let decay = 1.0 - f64::from(depth) / (f64::from(self.spread_radius) + 1.0);
        self.peak_probability * decay
    }

    /// Variance of the cluster count: `mean·(1 + mean/r)` — always
    /// over-dispersed relative to the Poisson count of equal mean.
    #[must_use]
    pub fn cluster_count_variance(&self) -> f64 {
        self.mean_clusters * (1.0 + self.mean_clusters / f64::from(self.dispersion))
    }

    /// Samples the negative-binomial cluster count as a sum of
    /// `dispersion` geometric variates (failures before success at
    /// success probability `r / (r + mean)`), by inversion: one uniform
    /// per unit of dispersion, each geometric draw clamped to 10 000.
    pub fn sample_cluster_count(&self, rng: &mut impl Rng) -> u32 {
        if self.mean_clusters == 0.0 {
            return 0;
        }
        let r = f64::from(self.dispersion);
        let success = r / (r + self.mean_clusters);
        let ln_fail = (1.0 - success).ln();
        let mut total = 0u64;
        for _ in 0..self.dispersion {
            // Inversion: P(X >= k) = (1-s)^k, so X = floor(ln U / ln(1-s)).
            let u: f64 = rng.gen();
            let draw = if u <= 0.0 {
                0.0
            } else {
                (u.ln() / ln_fail).floor()
            };
            // Guard pathological parameters; 10^4 clusters already blanket
            // any realistic chip.
            total += draw.clamp(0.0, 10_000.0) as u64;
        }
        u32::try_from(total.min(u64::from(u32::MAX))).unwrap_or(u32::MAX)
    }

    /// Samples one chip instance's faults on `walk`, pushing the id of
    /// every failed cell the walk reports (see [`ClusterWalk::with_ids`])
    /// onto `faults`: draws the cluster count, seeds each cluster
    /// uniformly over the walk's cells, and BFS-spreads it over the
    /// lattice adjacency with depth-decayed failure probability. A cell
    /// hit by two clusters is pushed twice.
    ///
    /// Randomness consumption per cluster depends only on the seed and
    /// the topology, never on previously drawn faults or on which cells
    /// the walk reports, so trials are reproducible under
    /// common-random-number schemes.
    pub fn sample_on<C>(
        &self,
        walk: &ClusterWalk<C>,
        rng: &mut impl Rng,
        scratch: &mut ClusterScratch,
        faults: &mut Vec<u32>,
    ) {
        self.sample_cells(walk, rng, scratch, |cell| {
            if walk.ids[cell] != NONE {
                faults.push(walk.ids[cell]);
            }
        });
    }

    /// [`ClusteredDefects::sample_on`] as a defect map: every failed cell
    /// of the walk (reported or not) marked with a generic
    /// open-connection cause, the richer cause taxonomy being
    /// hexagonal-specific.
    pub fn inject_on<C: Lattice>(&self, walk: &ClusterWalk<C>, rng: &mut impl Rng) -> DefectMap<C> {
        let mut failed = Vec::new();
        self.sample_cells(walk, rng, &mut walk.scratch(), |cell| failed.push(cell));
        DefectMap::from_cells(failed.into_iter().map(|cell| walk.cells[cell]))
    }

    /// [`ClusteredDefects::inject_on`] over a walk built for this call;
    /// loops over many trials build one walk instead.
    pub fn inject_in<T: Topology>(&self, topo: &T, rng: &mut impl Rng) -> DefectMap<T::Coord> {
        self.inject_on(&ClusterWalk::new(topo), rng)
    }

    /// The sampler behind [`ClusteredDefects::sample_on`]: calls `failed`
    /// with the walk index of each failed cell, in draw order.
    fn sample_cells<C>(
        &self,
        walk: &ClusterWalk<C>,
        rng: &mut impl Rng,
        scratch: &mut ClusterScratch,
        mut failed: impl FnMut(usize),
    ) {
        if walk.cells.is_empty() {
            return;
        }
        let clusters = self.sample_cluster_count(rng);
        for _ in 0..clusters {
            let seed = rng.gen_range(0..walk.cells.len()) as u32;
            walk.spread(seed, self.spread_radius, scratch, |cell, depth| {
                let prob = self.probability_at(depth);
                if prob > 0.0 && rng.gen_bool(prob) {
                    failed(cell);
                }
            });
        }
    }

    /// Expected failed-cell count on `topo`, computed exactly by summing
    /// the per-cell failure probability over every possible seed, in
    /// cell order (`O(cells × ball)`; intended for reports and
    /// calibration, not hot loops).
    #[must_use]
    pub fn expected_failures_in<T: Topology>(&self, topo: &T) -> f64 {
        let walk = ClusterWalk::new(topo);
        if walk.cells.is_empty() {
            return 0.0;
        }
        // Per seed: expected failures of one cluster from that seed.
        let mut per_seed_total = 0.0;
        let mut scratch = walk.scratch();
        for seed in 0..walk.cells.len() as u32 {
            walk.spread(seed, self.spread_radius, &mut scratch, |_, depth| {
                per_seed_total += self.probability_at(depth);
            });
        }
        self.mean_clusters * per_seed_total / walk.cells.len() as f64
    }
}

/// Marks "no id" in a walk's id table.
const NONE: u32 = u32::MAX;

/// A topology laid out for cluster spread: its cells over dense ids in
/// sorted ([`Topology::cells_iter`]) order, each cell's in-topology
/// neighbours in lattice neighbour order ([`Topology::neighbors_of`]
/// order), and the id each cell's fault is reported as. Built once per
/// topology from a [`SlotIndex`] and reused across trials and threads;
/// per-worker BFS state lives in a [`ClusterScratch`].
#[derive(Clone, Debug)]
pub struct ClusterWalk<C> {
    cells: Vec<C>,
    /// CSR offsets into `neighbors`, one per cell plus one.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// Reported id per cell, or [`NONE`] for a cell whose faults are
    /// drawn but dropped.
    ids: Vec<u32>,
}

impl<C: Lattice> ClusterWalk<C> {
    /// The walk over `topo`, reporting each cell by its position in
    /// sorted cell order.
    #[must_use]
    pub fn new<T: Topology<Coord = C>>(topo: &T) -> Self {
        let index = SlotIndex::covering(topo);
        let cells: Vec<C> = topo.cells_iter().collect();
        let mut dense = vec![NONE; index.slot_count()];
        let slots: Vec<usize> = cells
            .iter()
            .enumerate()
            .map(|(id, &cell)| {
                let slot = index.slot(cell).expect("the covering box holds every cell");
                dense[slot] = id as u32;
                slot
            })
            .collect();
        let mut offsets = Vec::with_capacity(cells.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(cells.len() * C::STEPS.len());
        for &slot in &slots {
            neighbors.extend(
                index
                    .neighbors(slot)
                    .map(|n| dense[n])
                    .filter(|&n| n != NONE),
            );
            offsets.push(neighbors.len() as u32);
        }
        ClusterWalk {
            ids: (0..cells.len() as u32).collect(),
            cells,
            offsets,
            neighbors,
        }
    }

    /// The walk over `topo`, reporting each cell by its position in
    /// `sampled` (strictly increasing, like a compiled evaluator's cell
    /// list); faults on cells outside `sampled` are dropped.
    #[must_use]
    pub fn with_ids<T: Topology<Coord = C>>(topo: &T, sampled: &[C]) -> Self {
        let mut walk = ClusterWalk::new(topo);
        // Both lists are sorted: one merge pass pairs them up.
        let mut next = sampled.iter().enumerate().peekable();
        for (id, &cell) in walk.ids.iter_mut().zip(&walk.cells) {
            while next.next_if(|&(_, &s)| s < cell).is_some() {}
            *id = next
                .next_if(|&(_, &s)| s == cell)
                .map_or(NONE, |(j, _)| j as u32);
        }
        walk
    }
}

impl<C> ClusterWalk<C> {
    /// A BFS scratch sized for this walk, one per worker.
    #[must_use]
    pub fn scratch(&self) -> ClusterScratch {
        ClusterScratch {
            visited: vec![0; self.cells.len()],
            stamp: 0,
            queue: Vec::new(),
        }
    }

    /// Visits the cells within `radius` hops of `seed` in BFS order,
    /// calling `visit(cell, depth)` on each.
    fn spread(
        &self,
        seed: u32,
        radius: u32,
        scratch: &mut ClusterScratch,
        mut visit: impl FnMut(usize, u32),
    ) {
        let stamp = scratch.next_stamp();
        let ClusterScratch { visited, queue, .. } = scratch;
        queue.clear();
        queue.push((seed, 0));
        visited[seed as usize] = stamp;
        let mut head = 0;
        while let Some(&(cell, depth)) = queue.get(head) {
            head += 1;
            let cell = cell as usize;
            visit(cell, depth);
            if depth == radius {
                continue;
            }
            let range = self.offsets[cell] as usize..self.offsets[cell + 1] as usize;
            for &next in &self.neighbors[range] {
                if visited[next as usize] != stamp {
                    visited[next as usize] = stamp;
                    queue.push((next, depth + 1));
                }
            }
        }
    }
}

/// Reusable BFS state for [`ClusteredDefects::sample_on`]: a
/// generation-stamped visited array (one fresh stamp per cluster, so
/// nothing is cleared between clusters) and the BFS queue.
#[derive(Clone, Debug)]
pub struct ClusterScratch {
    visited: Vec<u32>,
    stamp: u32,
    queue: Vec<(u32, u32)>,
}

impl ClusterScratch {
    /// Advances the stamp; on `u32` wrap-around clears the visited array
    /// so marks from 2^32 clusters ago cannot alias the new stamp.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.stamp = 1;
        }
        self.stamp
    }
}

impl InjectionModel for ClusteredDefects {
    fn inject(&self, region: &Region, rng: &mut impl Rng) -> DefectMap {
        self.inject_in(region, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_grid::SquareRegion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn parameters_round_trip_and_validate() {
        let m = ClusteredDefects::new(1.5, 2, 3, 0.7);
        assert_eq!(m.mean_clusters(), 1.5);
        assert_eq!(m.dispersion(), 2);
        assert_eq!(m.spread_radius(), 3);
        assert_eq!(m.peak_probability(), 0.7);
        assert!((m.probability_at(0) - 0.7).abs() < 1e-12);
        assert_eq!(m.probability_at(4), 0.0);
        assert!(m.probability_at(1) < m.probability_at(0));
    }

    #[test]
    #[should_panic(expected = "dispersion must be at least 1")]
    fn rejects_zero_dispersion() {
        let _ = ClusteredDefects::new(1.0, 0, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "peak probability")]
    fn rejects_bad_peak() {
        let _ = ClusteredDefects::new(1.0, 1, 1, 1.5);
    }

    #[test]
    fn zero_mean_injects_nothing() {
        let m = ClusteredDefects::new(0.0, 1, 2, 0.9);
        let map = m.inject_in(&SquareRegion::rect(10, 10), &mut rng(1));
        assert!(map.is_fault_free());
    }

    #[test]
    fn cluster_count_mean_is_calibrated() {
        for dispersion in [1u32, 4] {
            let m = ClusteredDefects::new(3.0, dispersion, 0, 1.0);
            let mut total = 0u64;
            let n = 20_000;
            let mut r = rng(42);
            for _ in 0..n {
                total += u64::from(m.sample_cluster_count(&mut r));
            }
            let mean = total as f64 / f64::from(n);
            assert!(
                (mean - 3.0).abs() < 0.1,
                "dispersion {dispersion}: mean {mean}"
            );
        }
    }

    #[test]
    fn smaller_dispersion_is_burstier() {
        // Same mean, different dispersion: empirical variance must be
        // larger for r = 1 than r = 8, and both above Poisson (= mean).
        let sample_var = |dispersion: u32| {
            let m = ClusteredDefects::new(2.0, dispersion, 0, 1.0);
            let mut r = rng(7);
            let n = 20_000;
            let draws: Vec<f64> = (0..n)
                .map(|_| f64::from(m.sample_cluster_count(&mut r)))
                .collect();
            let mean: f64 = draws.iter().sum::<f64>() / n as f64;
            draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        let bursty = sample_var(1);
        let smooth = sample_var(8);
        assert!(bursty > smooth + 0.5, "var r=1 {bursty} vs r=8 {smooth}");
        assert!(
            (bursty - ClusteredDefects::new(2.0, 1, 0, 1.0).cluster_count_variance()).abs() < 0.5
        );
    }

    #[test]
    fn faults_stay_in_region_and_cluster_locally() {
        let region = SquareRegion::rect(30, 30);
        let m = ClusteredDefects::new(1.0, 1, 2, 0.9);
        let mut any = false;
        for seed in 0..30 {
            let map = m.inject_in(&region, &mut rng(seed));
            for c in map.faulty_cells() {
                assert!(region.contains(c));
            }
            any |= !map.is_fault_free();
        }
        assert!(any, "clusters should appear at mean 1.0");
    }

    #[test]
    fn hex_and_square_topologies_both_work() {
        use dmfb_grid::Region;
        let m = ClusteredDefects::new(2.0, 1, 1, 1.0);
        let hex = m.inject_in(&Region::parallelogram(12, 12), &mut rng(3));
        let square = m.inject_in(&SquareRegion::rect(12, 12), &mut rng(3));
        // Peak 1.0 with ≥ 1 cluster ⇒ at least the seed fails.
        assert!(!hex.is_fault_free() || !square.is_fault_free());
        // The hex-region InjectionModel impl is the generic path.
        use crate::injection::InjectionModel as _;
        let via_trait = m.inject(&Region::parallelogram(12, 12), &mut rng(3));
        assert_eq!(via_trait, hex);
    }

    #[test]
    fn walk_ids_follow_the_sampled_cells() {
        let region = SquareRegion::rect(3, 2);
        let cells: Vec<_> = region.cells_iter().collect();
        // Every other cell, plus one outside the region at each end.
        let mut sampled = vec![dmfb_grid::SquareCoord::new(-1, 0)];
        sampled.extend(cells.iter().step_by(2));
        sampled.push(dmfb_grid::SquareCoord::new(9, 9));
        let walk = ClusterWalk::with_ids(&region, &sampled);
        assert_eq!(walk.cells, cells);
        assert_eq!(walk.ids, [1, NONE, 2, NONE, 3, NONE]);
        assert_eq!(ClusterWalk::new(&region).ids, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn walk_neighbours_are_topology_neighbours_in_order() {
        use dmfb_grid::Region;
        fn check<T: Topology>(topo: &T) {
            let walk = ClusterWalk::new(topo);
            for (id, &cell) in walk.cells.iter().enumerate() {
                let range = walk.offsets[id] as usize..walk.offsets[id + 1] as usize;
                let dense: Vec<_> = walk.neighbors[range]
                    .iter()
                    .map(|&n| walk.cells[n as usize])
                    .collect();
                let expected: Vec<_> = topo.neighbors_of(cell).collect();
                assert_eq!(dense, expected, "{cell:?}");
            }
        }
        check(&Region::parallelogram(5, 4));
        check(&SquareRegion::rect(4, 3));
        check(&SquareRegion::rect(0, 0));
    }

    #[test]
    fn stamp_wrap_clears_stale_marks() {
        let walk = ClusterWalk::new(&SquareRegion::rect(2, 1));
        let mut scratch = walk.scratch();
        scratch.stamp = u32::MAX;
        scratch.visited = vec![u32::MAX, 1];
        assert_eq!(scratch.next_stamp(), 1);
        assert_eq!(scratch.visited, [0, 0]);
        assert_eq!(scratch.next_stamp(), 2);
        // A wrapped scratch still spreads over both cells.
        scratch.stamp = u32::MAX;
        scratch.visited = vec![1, 1];
        let mut seen = Vec::new();
        walk.spread(0, 1, &mut scratch, |cell, depth| seen.push((cell, depth)));
        assert_eq!(seen, [(0, 0), (1, 1)]);
    }

    #[test]
    fn expected_failures_match_empirical_rate() {
        let region = SquareRegion::rect(20, 20);
        let m = ClusteredDefects::new(1.5, 2, 1, 0.6);
        let expected = m.expected_failures_in(&region);
        assert!(expected > 0.0);
        let mut r = rng(11);
        let n = 4_000;
        let mut total = 0usize;
        for _ in 0..n {
            total += m.inject_in(&region, &mut r).fault_count();
        }
        let empirical = total as f64 / f64::from(n);
        assert!(
            (empirical - expected).abs() / expected < 0.1,
            "empirical {empirical} vs expected {expected}"
        );
    }

    #[test]
    fn interior_expected_footprint_is_radius_ball() {
        // On a big square lattice an interior cluster touches
        // 1 + 4 + 8 = 13 cells at radius 2... but the decayed expectation
        // per cluster is Σ ring(d)·peak·decay(d). Check the exact helper
        // against a hand computation on a large region (boundary effects
        // diluted below the tolerance).
        let region = SquareRegion::rect(60, 60);
        let m = ClusteredDefects::new(1.0, 1, 2, 0.9);
        // Interior: ring sizes 1, 4, 8 at depths 0, 1, 2 (square
        // 4-adjacency BFS = Manhattan distance).
        let interior = 0.9 * (1.0 + 4.0 * (2.0 / 3.0) + 8.0 * (1.0 / 3.0));
        let exact = m.expected_failures_in(&region);
        assert!(
            (exact - interior).abs() / interior < 0.05,
            "exact {exact} vs interior {interior}"
        );
    }
}
