//! Droplet routing around faulty cells with fluidic constraints.
//!
//! Droplets move only between adjacent electrodes (microfluidic locality),
//! cannot enter catastrophically faulty cells, and independent droplets
//! must keep one empty cell between each other or they merge accidentally —
//! the *static fluidic constraint*. The router plans shortest paths under
//! these rules with breadth-first search over a dense grid: one flat slot
//! per cell of the region's axial bounding box ([`SlotIndex`]), padded by
//! a closed border so that every neighbour of an open slot is a fixed
//! index offset away.
//! A schedule that only needs move counts asks for one BFS distance field
//! per rendezvous cell instead of one path per transport.

use dmfb_defects::{DefectCause, DefectMap};
use dmfb_grid::{HexCoord, Region, SlotIndex};

/// Slot marker for a cell the search has not reached.
const UNSEEN: u32 = u32::MAX;
/// Slot marker for a cell inside another droplet's spacing halo.
const FORBIDDEN: u32 = u32::MAX - 1;

/// A path router over one chip's region and fault state.
///
/// # Example
///
/// ```
/// use dmfb_bioassay::router::Router;
/// use dmfb_defects::DefectMap;
/// use dmfb_grid::{HexCoord, Region};
///
/// let region = Region::parallelogram(5, 5);
/// let router = Router::new(&region, &DefectMap::new());
/// let path = router
///     .route(HexCoord::new(0, 0), HexCoord::new(4, 4), &[])
///     .unwrap();
/// assert_eq!(path.first(), Some(&HexCoord::new(0, 0)));
/// assert_eq!(path.last(), Some(&HexCoord::new(4, 4)));
/// ```
#[derive(Clone, Debug)]
pub struct Router {
    /// Slot arithmetic over the region's padded axial bounding box.
    index: SlotIndex,
    /// Whether each slot's cell is in the region and not catastrophically
    /// faulty. Border slots are always closed.
    open: Vec<bool>,
}

impl Router {
    /// Creates a router that avoids the catastrophically faulty cells of
    /// `defects`. Parametric faults do not block transport (droplets still
    /// move over them; detection is the test subsystem's business).
    ///
    /// Memory is one slot per cell of the region's axial bounding box.
    ///
    /// # Panics
    ///
    /// Panics if that box holds more than `i32::MAX` slots.
    #[must_use]
    pub fn new(region: &Region, defects: &DefectMap) -> Self {
        let index = SlotIndex::covering(region);
        let mut open = vec![false; index.slot_count()];
        for cell in region.iter() {
            open[index.slot(cell).expect("region cells lie in the box")] = true;
        }
        for (cell, cause) in defects.iter() {
            if matches!(cause, DefectCause::Catastrophic(_)) {
                if let Some(slot) = index.slot(cell) {
                    open[slot] = false;
                }
            }
        }
        Router { index, open }
    }

    /// The open slot holding `cell`, if it is routable.
    fn open_slot(&self, cell: HexCoord) -> Option<usize> {
        self.index.slot(cell).filter(|&s| self.open[s])
    }

    /// Shortest path from `from` to `to` avoiding blocked cells and keeping
    /// fluidic spacing from `other_droplets` (no cell of the path may be
    /// adjacent to or on top of another droplet, except the endpoints when
    /// they coincide with a merge target).
    ///
    /// Neighbours are explored in [`HexCoord::neighbors`] order from a
    /// FIFO queue, so among equally short paths the result is fixed.
    ///
    /// Returns `None` when no route exists.
    #[must_use]
    pub fn route(
        &self,
        from: HexCoord,
        to: HexCoord,
        other_droplets: &[HexCoord],
    ) -> Option<Vec<HexCoord>> {
        let start = self.open_slot(from)?;
        let goal = self.open_slot(to)?;
        if from == to {
            return Some(vec![from]);
        }
        // `prev[s]` is the slot `s` was reached from; the start points at
        // itself.
        let mut prev = vec![UNSEEN; self.open.len()];
        for halo in other_droplets
            .iter()
            .flat_map(|&d| std::iter::once(d).chain(d.neighbors()))
        {
            if let Some(s) = self.index.slot(halo).filter(|&s| s != start && s != goal) {
                prev[s] = FORBIDDEN;
            }
        }
        prev[start] = start as u32;
        let mut queue = vec![start];
        let mut head = 0;
        while let Some(&c) = queue.get(head) {
            head += 1;
            for n in self.index.neighbors(c) {
                if !self.open[n] || prev[n] != UNSEEN {
                    continue;
                }
                prev[n] = c as u32;
                if n == goal {
                    let mut path = vec![to];
                    let mut cur = goal;
                    while cur != start {
                        cur = prev[cur] as usize;
                        path.push(self.index.cell(cur));
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push(n);
            }
        }
        None
    }

    /// Breadth-first move counts from `source` to every routable cell.
    /// Routes are reversible on the hex lattice, so the field gives the
    /// move count of [`Router::route`] in either direction for every cell
    /// at the cost of one search.
    pub(crate) fn distances(&self, source: HexCoord) -> DistanceField<'_> {
        let mut dist = vec![UNSEEN; self.open.len()];
        if let Some(start) = self.open_slot(source) {
            dist[start] = 0;
            let mut queue = vec![start];
            let mut head = 0;
            while let Some(&c) = queue.get(head) {
                head += 1;
                let next = dist[c] + 1;
                for n in self.index.neighbors(c) {
                    if self.open[n] && dist[n] == UNSEEN {
                        dist[n] = next;
                        queue.push(n);
                    }
                }
            }
        }
        DistanceField { router: self, dist }
    }
}

/// Move counts from one source cell, as computed by [`Router::distances`].
pub(crate) struct DistanceField<'a> {
    router: &'a Router,
    dist: Vec<u32>,
}

impl DistanceField<'_> {
    /// Droplet moves between the source and `cell`, or `None` when no
    /// route joins them (either cell blocked, off the region, or walled
    /// off).
    pub(crate) fn moves(&self, cell: HexCoord) -> Option<usize> {
        let slot = self.router.index.slot(cell)?;
        (self.dist[slot] != UNSEEN).then(|| self.dist[slot] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_defects::{CatastrophicDefect, DefectCause, ParametricDefect};

    fn breakdown() -> DefectCause {
        DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown)
    }

    #[test]
    fn shortest_path_on_clean_chip() {
        let region = Region::parallelogram(6, 6);
        let router = Router::new(&region, &DefectMap::new());
        let from = HexCoord::new(0, 0);
        let to = HexCoord::new(5, 0);
        let path = router.route(from, to, &[]).unwrap();
        assert_eq!(path.len() as u32, from.distance(to) + 1);
        for w in path.windows(2) {
            assert!(w[0].is_adjacent(w[1]));
        }
    }

    #[test]
    fn routes_detour_around_faults() {
        let region = Region::parallelogram(5, 3);
        // Wall of faults across the middle column except the top row.
        let mut defects = DefectMap::new();
        defects.mark(HexCoord::new(2, 1), breakdown());
        defects.mark(HexCoord::new(2, 2), breakdown());
        let router = Router::new(&region, &defects);
        let from = HexCoord::new(0, 1);
        let to = HexCoord::new(4, 1);
        let path = router.route(from, to, &[]).unwrap();
        assert!(path.len() as u32 > from.distance(to) + 1, "must detour");
        for c in &path {
            assert!(!defects.is_faulty(*c));
        }
    }

    #[test]
    fn parametric_faults_do_not_block() {
        let region = Region::parallelogram(3, 1);
        let mut defects = DefectMap::new();
        defects.mark(
            HexCoord::new(1, 0),
            DefectCause::Parametric(ParametricDefect::PlateGap, 0.5),
        );
        let router = Router::new(&region, &defects);
        assert!(router
            .route(HexCoord::new(0, 0), HexCoord::new(2, 0), &[])
            .is_some());
    }

    #[test]
    fn blocked_endpoints_unroutable() {
        let region = Region::parallelogram(3, 3);
        let mut defects = DefectMap::new();
        defects.mark(HexCoord::new(0, 0), breakdown());
        let router = Router::new(&region, &defects);
        assert!(router
            .route(HexCoord::new(0, 0), HexCoord::new(2, 2), &[])
            .is_none());
        assert!(router
            .route(HexCoord::new(2, 2), HexCoord::new(0, 0), &[])
            .is_none());
        assert!(router
            .route(HexCoord::new(9, 9), HexCoord::new(2, 2), &[])
            .is_none());
    }

    #[test]
    fn fully_walled_target_unroutable() {
        let region = Region::hexagon(HexCoord::ORIGIN, 2);
        let mut defects = DefectMap::new();
        for c in HexCoord::ORIGIN.ring(1) {
            defects.mark(c, breakdown());
        }
        let router = Router::new(&region, &defects);
        assert!(router
            .route(HexCoord::new(2, 0), HexCoord::ORIGIN, &[])
            .is_none());
    }

    #[test]
    fn routes_respect_droplet_spacing() {
        let region = Region::parallelogram(7, 5);
        let router = Router::new(&region, &DefectMap::new());
        let parked = HexCoord::new(3, 2);
        let path = router
            .route(HexCoord::new(0, 2), HexCoord::new(6, 2), &[parked])
            .unwrap();
        for c in &path {
            assert!(*c != parked && !c.is_adjacent(parked), "cell {c} too close");
        }
    }

    #[test]
    fn spacing_halo_can_sever_small_arrays() {
        // On a narrow array the halo of a parked droplet cuts the region:
        // there must be NO route rather than a constraint-violating one.
        let region = Region::parallelogram(5, 3);
        let router = Router::new(&region, &DefectMap::new());
        assert!(router
            .route(
                HexCoord::new(0, 1),
                HexCoord::new(4, 1),
                &[HexCoord::new(2, 1)]
            )
            .is_none());
    }

    #[test]
    fn distance_field_matches_route_length_both_ways() {
        let region = Region::hexagon(HexCoord::ORIGIN, 3);
        let mut defects = DefectMap::new();
        for c in [
            HexCoord::new(1, 0),
            HexCoord::new(0, 1),
            HexCoord::new(-1, 1),
            HexCoord::new(2, -2),
        ] {
            defects.mark(c, breakdown());
        }
        defects.mark(
            HexCoord::new(-1, 0),
            DefectCause::Parametric(ParametricDefect::PlateGap, 0.5),
        );
        let router = Router::new(&region, &defects);
        let field = router.distances(HexCoord::ORIGIN);
        let moves = |from, to| router.route(from, to, &[]).map(|p| p.len() - 1);
        for cell in region.iter().chain([HexCoord::new(9, 9)]) {
            assert_eq!(field.moves(cell), moves(HexCoord::ORIGIN, cell));
            assert_eq!(field.moves(cell), moves(cell, HexCoord::ORIGIN));
        }
        let blocked = router.distances(HexCoord::new(1, 0));
        assert!(region.iter().all(|c| blocked.moves(c).is_none()));
    }

    #[test]
    fn same_cell_route_is_trivial() {
        let region = Region::parallelogram(2, 2);
        let router = Router::new(&region, &DefectMap::new());
        let c = HexCoord::new(1, 1);
        assert_eq!(router.route(c, c, &[]), Some(vec![c]));
    }
}
