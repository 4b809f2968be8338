//! Incremental Monte-Carlo trial evaluation, generic over the redundancy
//! scheme.
//!
//! The naive hot path rebuilds the world once per trial: inject a
//! [`DefectMap`] (a `BTreeMap` per chip), re-derive which spares border
//! which faulty primaries by walking the lattice, allocate a fresh
//! adjacency-list graph, and run a fresh matcher. Every piece of that
//! except the random fault draw is *identical across trials* of the same
//! array.
//!
//! [`TrialEvaluator`] hoists the invariant part out of the loop. Built
//! once per scheme instance — from a hex `(array, policy)` pair via
//! [`TrialEvaluator::new`], or from **any** [`RedundancyScheme`] over any
//! [`Topology`] via [`TrialEvaluator::for_scheme`] —
//! it takes over the compiled [`SchemeStructure`], CSR arrays of the
//! relevant cells, the replaceable *units* (primary cells, or module rows
//! for the spare-row baseline), the spare *resources*, and the
//! unit→resource adjacency, adding only the reverse adjacency. Both
//! constructors of cell-level evaluators run the one compiler in
//! `scheme.rs`. A trial then only (a) draws one uniform per relevant cell,
//! (b) aggregates them into per-unit/per-resource fault flags, and
//! (c) runs the bitset Hopcroft–Karp from `dmfb-graph` over a reusable
//! [`BitsetGraph`] — no maps, no lattice walks, no allocations after
//! warm-up.
//!
//! The evaluator also answers a whole survival-probability **grid** per
//! trial ([`TrialEvaluator::survival_trial_grid`]): with common random
//! numbers (a cell survives at `p` iff its uniform `u < p`), the fault
//! sets are nested along the grid, tolerability is monotone in `p`, and a
//! binary search finds the tolerability threshold in `O(log k)` matcher
//! calls — one Monte-Carlo pass serves an entire yield curve, for every
//! scheme alike.

use crate::array::DefectTolerantArray;
use crate::local::{ReconfigFailure, ReconfigPlan, ReconfigPolicy};
use crate::scheme::{compile_cells, RedundancyScheme, SchemeStructure};
use dmfb_defects::DefectMap;
use dmfb_graph::{BitsetGraph, BitsetMatcher};
use dmfb_grid::{HexCoord, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Precomputed matching structure for one scheme instance, reused across
/// all Monte-Carlo trials.
///
/// All methods take `&self`; per-trial mutable state lives in a
/// [`TrialScratch`] so one evaluator can be shared across worker threads
/// (hand each worker its own scratch from [`TrialEvaluator::scratch`]).
///
/// # Example
///
/// ```
/// use dmfb_reconfig::dtmb::DtmbKind;
/// use dmfb_reconfig::{ReconfigPolicy, TrialEvaluator};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let array = DtmbKind::Dtmb26A.with_primary_count(60);
/// let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
/// let mut scratch = eval.scratch();
/// let mut rng = StdRng::seed_from_u64(7);
/// // One trial at 95% cell survival.
/// let tolerable = eval.survival_trial(0.95, &mut rng, &mut scratch);
/// // High survival on a protected array almost always reconfigures.
/// let _ = tolerable;
/// ```
///
/// The same engine runs non-hex schemes:
///
/// ```
/// use dmfb_grid::SquareRegion;
/// use dmfb_reconfig::{RedundancyScheme, SquarePattern, TrialEvaluator};
///
/// let region = SquareRegion::rect(12, 12);
/// let eval = TrialEvaluator::for_scheme(&region, &SquarePattern::Stripes);
/// assert!(eval.unit_count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct TrialEvaluator<C = HexCoord> {
    /// The compiled structure, taken over as it is.
    pub(crate) structure: SchemeStructure<C>,
    /// CSR offsets into `rev_units`, length `resource_count + 1`.
    pub(crate) rev_offsets: Vec<u32>,
    /// Concatenated distinct unit indices per resource: the reverse of
    /// the `adj_res` adjacency, ascending within each resource.
    pub(crate) rev_units: Vec<u32>,
}

/// Reusable per-trial buffers for a [`TrialEvaluator`]. Create one per
/// worker thread via [`TrialEvaluator::scratch`].
#[derive(Clone, Debug)]
pub struct TrialScratch {
    /// Uniform draw per relevant cell (grid and survival modes).
    pub(crate) u_cell: Vec<f64>,
    /// Max member-cell uniform per unit: the unit is faulty at survival
    /// `p` iff this is `>= p`.
    pub(crate) unit_u: Vec<f64>,
    /// Max member-cell uniform per resource (`-1.0` for indestructible
    /// resources, which never fail).
    pub(crate) res_u: Vec<f64>,
    pub(crate) faulty_unit: Vec<bool>,
    pub(crate) dead_res: Vec<bool>,
    /// Faulty units of the current trial (indices into the unit space).
    pub(crate) rows: Vec<u32>,
    /// Edge list of the current trial's compacted graph.
    pub(crate) edges: Vec<(u32, u32)>,
    /// Generation-stamped resource→column compaction (avoids clearing).
    pub(crate) col_of_res: Vec<u32>,
    pub(crate) col_gen: Vec<u32>,
    pub(crate) generation: u32,
    /// Inverse of `col_of_res` for the current trial: the resource index
    /// behind each compacted column (needed to read assignments back).
    pub(crate) res_of_col: Vec<u32>,
    /// Cell-index permutation buffer for exact-`k` fault sampling
    /// ([`TrialEvaluator::exact_fault_trial`]); reset to the identity at
    /// the start of every such trial so results never depend on which
    /// trials a worker ran before.
    pub(crate) perm: Vec<u32>,
    pub(crate) graph: BitsetGraph,
    pub(crate) matcher: BitsetMatcher,
}

impl TrialEvaluator<HexCoord> {
    /// Builds the evaluator for a hexagonal DTMB `array` under `policy`:
    /// the cell-level compiler over the array's role slots, with units
    /// filtered by [`ReconfigPolicy::requires`]. Cost is a few passes over
    /// the slots — amortised over every subsequent trial.
    #[must_use]
    pub fn new(array: &DefectTolerantArray, policy: &ReconfigPolicy) -> Self {
        TrialEvaluator::from_structure(compile_cells(array.slot_index(), array.slot_roles(), |c| {
            policy.requires(c)
        }))
    }

    /// Local reconfiguration of `defects`: the [`ReconfigPlan`] behind a
    /// tolerable verdict, or a [`ReconfigFailure`] with its Hall witness
    /// (built only on failure). Every plan that is printed or executed
    /// comes from here; [`crate::attempt_reconfiguration`] wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigFailure`] when some faulty in-scope primary
    /// cannot be assigned a distinct adjacent fault-free spare.
    ///
    /// # Panics
    ///
    /// Panics if the evaluator was built from a structure with multi-cell
    /// units or resources (hex evaluators from [`TrialEvaluator::new`] and
    /// DTMB [`RedundancyScheme`]s are always cell-level).
    pub fn reconfigure(
        &self,
        defects: &DefectMap,
        scratch: &mut TrialScratch,
    ) -> Result<ReconfigPlan, ReconfigFailure> {
        self.stage_cell_faults(scratch, |c| defects.is_faulty(c));
        // Isolated faulty units stay in as edgeless rows, so a failure is
        // explained from the same graph the verdict came from.
        self.compact(scratch, false);
        let unit = |row: usize| self.sole_cell(self.unit_members(scratch.rows[row] as usize));
        let spare = |col: usize| self.sole_cell(self.res_members(scratch.res_of_col[col] as usize));
        if scratch.matcher.covers_all_left(&scratch.graph) {
            let pairs = scratch.matcher.left_pairs();
            return Ok(ReconfigPlan::from_assignments(
                pairs.map(|(row, col)| (unit(row), spare(col))),
            ));
        }
        let witness = scratch
            .matcher
            .hall_witness(&scratch.graph)
            .expect("an uncovered faulty unit implies a Hall violation");
        let matched: Vec<usize> = scratch.matcher.left_pairs().map(|(row, _)| row).collect();
        Err(ReconfigFailure {
            unassigned: (0..scratch.rows.len())
                .filter(|row| matched.binary_search(row).is_err())
                .map(unit)
                .collect(),
            deficient_set: witness.left_set.into_iter().map(unit).collect(),
            available_spares: witness.neighborhood.into_iter().map(spare).collect(),
        })
    }

    /// The one lattice cell of a cell-level unit or resource.
    fn sole_cell(&self, members: &[u32]) -> HexCoord {
        assert!(
            members.len() == 1,
            "reconfigure requires a cell-level scheme structure"
        );
        self.structure.cells[members[0] as usize]
    }
}

/// Inverts the unit→resource CSR into resource→unit CSR by a counting
/// sort: each resource lists its distinct units in ascending order.
fn reverse_adjacency(
    adj_offsets: &[u32],
    adj_res: &[u32],
    resources: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; resources + 1];
    for &r in adj_res {
        offsets[r as usize + 1] += 1;
    }
    for j in 0..resources {
        offsets[j + 1] += offsets[j];
    }
    let mut fill = offsets.clone();
    let mut units = vec![0u32; adj_res.len()];
    for (i, bounds) in adj_offsets.windows(2).enumerate() {
        for &r in &adj_res[bounds[0] as usize..bounds[1] as usize] {
            units[fill[r as usize] as usize] = i as u32;
            fill[r as usize] += 1;
        }
    }
    // Units arrive in ascending order, so a repeated `connect` is an
    // adjacent duplicate; squeeze those out in place.
    let mut kept = 0usize;
    let mut start = 0usize;
    for j in 0..resources {
        let end = offsets[j + 1] as usize;
        offsets[j] = kept as u32;
        for k in start..end {
            let unit = units[k];
            if k == start || unit != units[kept - 1] {
                units[kept] = unit;
                kept += 1;
            }
        }
        start = end;
    }
    offsets[resources] = kept as u32;
    units.truncate(kept);
    (offsets, units)
}

impl<C: Copy + Ord> TrialEvaluator<C> {
    /// Builds the evaluator for any scheme over any topology — the one
    /// fast engine behind hex DTMB, square DTMB and spare-row sweeps.
    #[must_use]
    pub fn for_scheme<T>(topo: &T, scheme: &impl RedundancyScheme<T>) -> Self
    where
        T: Topology<Coord = C>,
    {
        TrialEvaluator::from_structure(scheme.compile(topo))
    }

    /// Takes a compiled [`SchemeStructure`] over, adding the reverse
    /// (resource → unit) adjacency.
    #[must_use]
    pub fn from_structure(structure: SchemeStructure<C>) -> Self {
        let (rev_offsets, rev_units) = reverse_adjacency(
            &structure.adj_offsets,
            &structure.adj_res,
            structure.res_offsets.len() - 1,
        );
        TrialEvaluator {
            structure,
            rev_offsets,
            rev_units,
        }
    }

    /// Number of replaceable units (for cell-level schemes: the in-scope
    /// primary cells).
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.structure.unit_offsets.len() - 1
    }

    /// Number of spare resources that can ever participate in a matching.
    #[must_use]
    pub fn resource_count(&self) -> usize {
        self.structure.res_offsets.len() - 1
    }

    /// Number of distinct cells whose fault state the evaluator samples.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.structure.cells.len()
    }

    /// The sampled cells, strictly increasing; a cell's position here is
    /// its id in [`TrialEvaluator::sampled_block`] fault lists.
    #[must_use]
    pub fn cells(&self) -> &[C] {
        &self.structure.cells
    }

    /// The ids of `defects`' faulty cells that the evaluator samples —
    /// the fault list a [`TrialEvaluator::sampled_block`] sampler pushes
    /// for a defect map (faults on other cells cannot change a verdict).
    pub fn fault_ids<'a>(&'a self, defects: &'a DefectMap<C>) -> impl Iterator<Item = u32> + 'a {
        let cells = &self.structure.cells;
        defects
            .faulty_cells()
            .filter_map(|c| cells.binary_search(&c).ok().map(|id| id as u32))
    }

    /// Number of unit→resource adjacencies in the precomputed structure.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.structure.adj_res.len()
    }

    /// Largest fault count that is **provably** tolerable on this
    /// structure, placement-independent: any fault set of at most this
    /// many cells can always be reconfigured.
    ///
    /// The bound is Hall-theoretic. Let `d_min` be the minimum number of
    /// distinct candidate resources over all units. For any fault set `F`
    /// with `|F| ≤ d_min` (every cell belonging to at most one unit or
    /// resource), the faulty units `A` and dead resources `R` satisfy
    /// `|A| + |R| ≤ d_min`, and every subset `B ⊆ A` has
    /// `|N(B) \ R| ≥ d_min − |R| ≥ |B|` — so Hall's condition holds and a
    /// full matching exists. Degenerate cases: no units at all means
    /// *every* fault set is tolerable (the cell count is returned); a cell
    /// shared between two member lists (unit or resource) lets one fault
    /// fail both, voiding the counting argument, and the bound collapses
    /// to 0 (none of the shipped schemes do this).
    ///
    /// The defect-count-stratified estimator uses this to resolve
    /// low-count strata exactly instead of sampling them.
    #[must_use]
    pub fn guaranteed_tolerable_faults(&self) -> usize {
        let s = &self.structure;
        if self.unit_count() == 0 {
            return s.cells.len();
        }
        let mut seen = vec![false; s.cells.len()];
        for &c in s.unit_cells.iter().chain(&s.res_cells) {
            if std::mem::replace(&mut seen[c as usize], true) {
                return 0;
            }
        }
        // The reverse adjacency lists each unit once per distinct
        // candidate, so repeated edges count once here.
        let mut degree = vec![0usize; self.unit_count()];
        for &i in &self.rev_units {
            degree[i as usize] += 1;
        }
        degree.into_iter().min().unwrap_or(0)
    }

    /// Allocates a scratch sized for this evaluator. One per worker
    /// thread; reused across all of that worker's trials.
    #[must_use]
    pub fn scratch(&self) -> TrialScratch {
        TrialScratch {
            u_cell: vec![0.0; self.structure.cells.len()],
            unit_u: vec![0.0; self.unit_count()],
            res_u: vec![0.0; self.resource_count()],
            faulty_unit: vec![false; self.unit_count()],
            dead_res: vec![false; self.resource_count()],
            rows: Vec::with_capacity(self.unit_count()),
            edges: Vec::with_capacity(self.structure.adj_res.len()),
            col_of_res: vec![0; self.resource_count()],
            col_gen: vec![0; self.resource_count()],
            generation: 0,
            res_of_col: Vec::with_capacity(self.resource_count()),
            perm: (0..self.structure.cells.len() as u32).collect(),
            graph: BitsetGraph::new(0, 0),
            matcher: BitsetMatcher::new(),
        }
    }

    /// Member-cell indices of unit `i`.
    pub(crate) fn unit_members(&self, i: usize) -> &[u32] {
        &self.structure.unit_cells
            [self.structure.unit_offsets[i] as usize..self.structure.unit_offsets[i + 1] as usize]
    }

    /// Member-cell indices of resource `j`.
    pub(crate) fn res_members(&self, j: usize) -> &[u32] {
        &self.structure.res_cells
            [self.structure.res_offsets[j] as usize..self.structure.res_offsets[j + 1] as usize]
    }

    /// Candidate resource indices of unit `i`.
    pub(crate) fn adjacent(&self, i: usize) -> &[u32] {
        &self.structure.adj_res
            [self.structure.adj_offsets[i] as usize..self.structure.adj_offsets[i + 1] as usize]
    }

    /// Distinct units that list resource `j` as a candidate.
    pub(crate) fn res_units(&self, j: usize) -> &[u32] {
        &self.rev_units[self.rev_offsets[j] as usize..self.rev_offsets[j + 1] as usize]
    }

    /// Folds the per-cell uniforms in `scratch.u_cell` into per-unit and
    /// per-resource maxima, so thresholding against any survival `p` is
    /// `O(units + resources)`.
    fn aggregate_uniforms(&self, scratch: &mut TrialScratch) {
        for i in 0..self.unit_count() {
            scratch.unit_u[i] = self
                .unit_members(i)
                .iter()
                .map(|&c| scratch.u_cell[c as usize])
                .fold(f64::NEG_INFINITY, f64::max);
        }
        for j in 0..self.resource_count() {
            // Indestructible resources (no member cells) aggregate to -1,
            // which never reaches any survival threshold in [0, 1].
            scratch.res_u[j] = self
                .res_members(j)
                .iter()
                .map(|&c| scratch.u_cell[c as usize])
                .fold(-1.0, f64::max);
        }
    }

    /// Stages fault flags for survival probability `p` from the aggregated
    /// uniforms (a cell fails iff its uniform `u >= p`).
    fn threshold(&self, p: f64, scratch: &mut TrialScratch) {
        for (f, &u) in scratch.faulty_unit.iter_mut().zip(&scratch.unit_u) {
            *f = u >= p;
        }
        for (d, &u) in scratch.dead_res.iter_mut().zip(&scratch.res_u) {
            *d = u >= p;
        }
    }

    /// Decides tolerability for the fault flags currently staged in
    /// `scratch.faulty_unit` / `scratch.dead_res`.
    pub(crate) fn solve(&self, scratch: &mut TrialScratch) -> bool {
        self.compact(scratch, true) && scratch.matcher.covers_all_left(&scratch.graph)
    }

    /// Compacts the staged fault flags into the trial's bitset graph: a
    /// row per faulty unit, a column per live resource they can use, in
    /// order of first use. A faulty unit with no live resource is an
    /// edgeless row, or with `stop_at_isolated` ends the call with `false`.
    fn compact(&self, scratch: &mut TrialScratch, stop_at_isolated: bool) -> bool {
        scratch.rows.clear();
        scratch.edges.clear();
        scratch.res_of_col.clear();
        scratch.generation = scratch.generation.wrapping_add(1);
        if scratch.generation == 0 {
            // u32 wrap-around: stamps from 2^32 solves ago would alias the
            // fresh counter, so invalidate them all and restart at 1.
            scratch.col_gen.iter_mut().for_each(|g| *g = 0);
            scratch.generation = 1;
        }
        let generation = scratch.generation;
        let mut cols = 0u32;
        for (i, &faulty) in scratch.faulty_unit.iter().enumerate() {
            if !faulty {
                continue;
            }
            let row = scratch.rows.len() as u32;
            let mut any = false;
            for &r in self.adjacent(i) {
                if scratch.dead_res[r as usize] {
                    continue;
                }
                let col = if scratch.col_gen[r as usize] == generation {
                    scratch.col_of_res[r as usize]
                } else {
                    scratch.col_gen[r as usize] = generation;
                    scratch.col_of_res[r as usize] = cols;
                    scratch.res_of_col.push(r);
                    cols += 1;
                    cols - 1
                };
                scratch.edges.push((row, col));
                any = true;
            }
            if !any && stop_at_isolated {
                return false;
            }
            scratch.rows.push(i as u32);
        }
        scratch.graph.reset(scratch.rows.len(), cols as usize);
        for &(a, b) in &scratch.edges {
            scratch.graph.add_edge(a as usize, b as usize);
        }
        true
    }

    /// Runs one survival-mode trial: every relevant cell fails
    /// independently with probability `1 − p`; returns whether the
    /// resulting chip is tolerable under the scheme's reconfiguration
    /// semantics.
    ///
    /// For hex arrays the verdict has exactly the same distribution as
    /// building a [`DefectMap`] with `Bernoulli::from_survival(p)` and
    /// calling [`TrialEvaluator::evaluate_defects`]: cells outside the
    /// evaluator's structure (out-of-scope primaries, spares bordering
    /// none of them) cannot change the answer, so their draws are skipped.
    pub fn survival_trial(&self, p: f64, rng: &mut StdRng, scratch: &mut TrialScratch) -> bool {
        for u in scratch.u_cell.iter_mut() {
            *u = rng.gen();
        }
        self.aggregate_uniforms(scratch);
        self.threshold(p, scratch);
        self.solve(scratch)
    }

    /// Runs one trial against an **entire ascending survival grid**,
    /// writing `out[j] = tolerable at ps[j]` for every grid point.
    ///
    /// One uniform is drawn per relevant cell and shared across the grid
    /// (common random numbers): a cell survives at `p` iff `u < p`, so
    /// fault sets shrink as `p` grows and tolerability is monotone along
    /// the grid. The threshold index is located by binary search —
    /// `O(log k)` matcher calls instead of `k`.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not sorted ascending or lengths mismatch.
    pub fn survival_trial_grid(
        &self,
        ps: &[f64],
        rng: &mut StdRng,
        scratch: &mut TrialScratch,
        out: &mut [bool],
    ) {
        assert_eq!(ps.len(), out.len(), "grid and output lengths differ");
        assert!(
            ps.windows(2).all(|w| w[0] <= w[1]),
            "survival grid must be ascending"
        );
        for u in scratch.u_cell.iter_mut() {
            *u = rng.gen();
        }
        self.aggregate_uniforms(scratch);
        // Binary search the smallest grid index that is tolerable.
        let mut lo = 0usize; // smallest index possibly tolerable
        let mut hi = ps.len(); // everything >= hi known tolerable
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.threshold(ps[mid], scratch);
            if self.solve(scratch) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        for (j, o) in out.iter_mut().enumerate() {
            *o = j >= lo;
        }
    }

    /// Runs one **exact-fault-count** trial: exactly `faults` of the
    /// evaluator's relevant cells fail, chosen uniformly without
    /// replacement; returns whether the resulting chip is tolerable.
    ///
    /// This is the per-stratum sampler behind the defect-count-stratified
    /// rare-event estimator: conditioning on `K = k` failures turns the
    /// survival probability into `Σₖ P(K=k)·P(survive | K=k)`, and this
    /// method samples the conditional term. The verdict distribution
    /// matches `ExactCount::inject_in` over the evaluator's cell set,
    /// but the placement is drawn by a partial Fisher–Yates shuffle over
    /// a reusable scratch permutation — no per-trial allocation. The
    /// permutation is reset to the identity each call, so results depend
    /// only on the RNG state, never on scratch history (thread-count
    /// invariance).
    ///
    /// # Panics
    ///
    /// Panics if `faults` exceeds the evaluator's relevant-cell count.
    pub fn exact_fault_trial(
        &self,
        faults: usize,
        rng: &mut StdRng,
        scratch: &mut TrialScratch,
    ) -> bool {
        let n = self.structure.cells.len();
        assert!(
            faults <= n,
            "cannot inject {faults} faults into a {n}-cell structure"
        );
        for (i, slot) in scratch.perm.iter_mut().enumerate() {
            *slot = i as u32;
        }
        for u in scratch.u_cell.iter_mut() {
            *u = 0.0;
        }
        for i in 0..faults {
            let j = rng.gen_range(i..n);
            scratch.perm.swap(i, j);
            scratch.u_cell[scratch.perm[i] as usize] = 1.0;
        }
        self.stage_marked_cells(scratch);
        self.solve(scratch)
    }

    /// Evaluates an explicit defect map: whether every faulty unit can be
    /// matched to a distinct live resource. Cells outside the evaluator's
    /// structure are ignored.
    pub fn evaluate_defects(&self, defects: &DefectMap<C>, scratch: &mut TrialScratch) -> bool {
        self.stage_cell_faults(scratch, |c| defects.is_faulty(c));
        self.solve(scratch)
    }

    /// Evaluates an explicit faulty-cell list (cells outside the
    /// evaluator's structure are ignored).
    pub fn evaluate_faulty_cells(&self, faulty: &[C], scratch: &mut TrialScratch) -> bool {
        let mut sorted: Vec<C> = faulty.to_vec();
        sorted.sort_unstable();
        self.stage_cell_faults(scratch, |c| sorted.binary_search(&c).is_ok());
        self.solve(scratch)
    }

    /// The lattice cells making up unit `i` (one cell for interstitial
    /// schemes; a whole module row for the spare-row baseline).
    pub fn unit_coords(&self, i: usize) -> impl Iterator<Item = C> + '_ {
        let cells = &self.structure.cells;
        self.unit_members(i).iter().map(move |&c| cells[c as usize])
    }

    /// The lattice cells making up resource `j` (empty for indestructible
    /// resources such as legacy spare rows).
    pub fn resource_coords(&self, j: usize) -> impl Iterator<Item = C> + '_ {
        let cells = &self.structure.cells;
        self.res_members(j).iter().map(move |&c| cells[c as usize])
    }

    /// Member-cell count of each unit, in unit order.
    pub fn unit_cell_counts(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.unit_count()).map(|i| self.unit_members(i).len())
    }

    /// Member-cell count of each resource, in resource order (zero for
    /// indestructible resources).
    pub fn resource_cell_counts(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.resource_count()).map(|j| self.res_members(j).len())
    }

    /// Whether any lattice cell belongs to two different units. The
    /// shipped schemes all keep units disjoint (each primary cell or
    /// module row belongs to exactly one unit), which is what makes the
    /// exact survival bounds below valid.
    fn units_overlap(&self) -> bool {
        let mut seen = vec![false; self.structure.cells.len()];
        for &c in &self.structure.unit_cells {
            if seen[c as usize] {
                return true;
            }
            seen[c as usize] = true;
        }
        false
    }

    /// **Exact** upper bound on the survival yield at cell-survival
    /// probability `p`, computed without sampling.
    ///
    /// A trial survives only if every faulty unit is matched to a
    /// distinct spare resource, so Hall's condition gives the necessary
    /// count bound `#faulty units ≤ resource_count`. Units have disjoint
    /// member-cell sets on every shipped scheme, so unit faults are
    /// independent `Bernoulli(1 − p^|unit|)` variables and the bound is
    /// the Poisson-binomial tail `P(X ≤ resource_count)`, evaluated by a
    /// truncated convolution in `O(units × resources)`.
    ///
    /// The design-space search uses this to prune candidates whose bound
    /// already falls below the target yield before spending any trials.
    /// Degenerate cases: with no units every trial survives (bound 1);
    /// if units ever shared cells the independence argument would break,
    /// so the bound degrades to the vacuous 1.
    #[must_use]
    pub fn survival_upper_bound(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        if self.unit_count() == 0 {
            return 1.0;
        }
        if self.units_overlap() {
            return 1.0;
        }
        let cap = self.resource_count();
        // dist[k] = P(exactly k faulty units among those processed), for
        // k ≤ cap; mass beyond cap is dropped (it only ever leaves the
        // survivable region, so the retained sum is exactly P(X ≤ cap)).
        let mut dist = vec![0.0f64; cap + 1];
        dist[0] = 1.0;
        let mut filled = 0usize;
        for size in self.unit_cell_counts() {
            let q = 1.0 - p.powi(i32::try_from(size).expect("unit size fits i32"));
            filled = (filled + 1).min(cap);
            for k in (0..=filled).rev() {
                let stay = dist[k] * (1.0 - q);
                let rise = if k > 0 { dist[k - 1] * q } else { 0.0 };
                dist[k] = stay + rise;
            }
        }
        dist.iter().sum::<f64>().min(1.0)
    }

    /// **Exact** lower bound on the survival yield at cell-survival
    /// probability `p`: any fault set of at most
    /// [`TrialEvaluator::guaranteed_tolerable_faults`] cells is
    /// reconfigurable regardless of placement, so the chip survives at
    /// least whenever the binomial fault count stays under that bound —
    /// `P(Binomial(cell_count, 1 − p) ≤ g)`, summed in log space for
    /// numerical stability on large arrays.
    #[must_use]
    pub fn survival_lower_bound(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let n = self.cell_count();
        let g = self.guaranteed_tolerable_faults();
        if g >= n {
            return 1.0;
        }
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }
        let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
        let mut ln_choose = 0.0f64; // ln C(n, 0)
        let mut total = 0.0f64;
        for k in 0..=g {
            if k > 0 {
                ln_choose += ((n - k + 1) as f64).ln() - (k as f64).ln();
            }
            total += (ln_choose + k as f64 * ln_q + (n - k) as f64 * ln_p).exp();
        }
        total.min(1.0)
    }

    /// Stages per-unit/per-resource fault flags from a per-cell fault
    /// predicate.
    fn stage_cell_faults(&self, scratch: &mut TrialScratch, mut is_faulty: impl FnMut(C) -> bool) {
        for (u, &c) in scratch.u_cell.iter_mut().zip(&self.structure.cells) {
            *u = if is_faulty(c) { 1.0 } else { 0.0 };
        }
        self.stage_marked_cells(scratch);
    }

    /// Folds the 0/1 fault markers currently in `scratch.u_cell` into the
    /// per-unit/per-resource fault flags.
    fn stage_marked_cells(&self, scratch: &mut TrialScratch) {
        for i in 0..self.unit_count() {
            scratch.faulty_unit[i] = self
                .unit_members(i)
                .iter()
                .any(|&c| scratch.u_cell[c as usize] == 1.0);
        }
        for j in 0..self.resource_count() {
            scratch.dead_res[j] = self
                .res_members(j)
                .iter()
                .any(|&c| scratch.u_cell[c as usize] == 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtmb::DtmbKind;
    use rand::SeedableRng;

    fn evaluator(kind: DtmbKind, n: usize) -> (DefectTolerantArray, TrialEvaluator) {
        let array = kind.with_primary_count(n);
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
        (array, eval)
    }

    #[test]
    fn structure_mirrors_array() {
        let (array, eval) = evaluator(DtmbKind::Dtmb26A, 80);
        assert_eq!(eval.unit_count(), array.primary_count());
        assert!(eval.resource_count() <= array.spare_count());
        assert!(eval.edge_count() > 0);
        assert_eq!(eval.cell_count(), eval.unit_count() + eval.resource_count());
    }

    #[test]
    fn fault_free_chip_is_tolerable() {
        let (_, eval) = evaluator(DtmbKind::Dtmb44, 40);
        let mut scratch = eval.scratch();
        assert!(eval.evaluate_defects(&DefectMap::new(), &mut scratch));
    }

    #[test]
    fn survival_extremes() {
        let (_, eval) = evaluator(DtmbKind::Dtmb26A, 60);
        let mut scratch = eval.scratch();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(eval.survival_trial(1.0, &mut rng, &mut scratch));
        assert!(!eval.survival_trial(0.0, &mut rng, &mut scratch));
    }

    #[test]
    fn grid_trials_are_monotone_and_match_threshold() {
        let (_, eval) = evaluator(DtmbKind::Dtmb36, 80);
        let mut scratch = eval.scratch();
        let ps = [0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0];
        let mut out = [false; 7];
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            eval.survival_trial_grid(&ps, &mut rng, &mut scratch, &mut out);
            // Monotone: once tolerable, stays tolerable.
            for w in out.windows(2) {
                assert!(w[1] || !w[0], "tolerability must be monotone: {out:?}");
            }
            // p = 1 has no faults at all.
            assert!(out[6]);
        }
    }

    #[test]
    fn policy_scoping_is_respected() {
        use std::collections::BTreeSet;
        let array = DtmbKind::Dtmb26A.with_primary_count(50);
        // Empty scope: nothing is required, chips always pass.
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::UsedCells(BTreeSet::new()));
        assert_eq!(eval.unit_count(), 0);
        let mut scratch = eval.scratch();
        let all: Vec<HexCoord> = array.region().iter().collect();
        assert!(eval.evaluate_defects(&DefectMap::from_cells(all), &mut scratch));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn grid_must_be_sorted() {
        let (_, eval) = evaluator(DtmbKind::Dtmb44, 20);
        let mut scratch = eval.scratch();
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = [false; 2];
        eval.survival_trial_grid(&[0.9, 0.5], &mut rng, &mut scratch, &mut out);
    }

    #[test]
    fn exact_fault_trials_hit_extremes_and_match_oracle_rates() {
        let (_, eval) = evaluator(DtmbKind::Dtmb26A, 60);
        let mut scratch = eval.scratch();
        let n = eval.cell_count();
        let mut rng = StdRng::seed_from_u64(0xEF);
        // Zero faults always tolerable; every cell faulty never is (the
        // structure has required units).
        assert!(eval.exact_fault_trial(0, &mut rng, &mut scratch));
        assert!(!eval.exact_fault_trial(n, &mut rng, &mut scratch));
        // The per-k success rate must match evaluate_faulty_cells over
        // ExactCount-style draws (same distribution, different streams).
        use rand::seq::SliceRandom;
        for k in [1usize, 3, 6] {
            let trials = 400;
            let mut fast = 0u32;
            for _ in 0..trials {
                fast += u32::from(eval.exact_fault_trial(k, &mut rng, &mut scratch));
            }
            // Reference: shuffle the evaluator's cell universe directly.
            let universe: Vec<HexCoord> = (0..eval.unit_count())
                .flat_map(|i| eval.unit_coords(i))
                .chain((0..eval.resource_count()).flat_map(|j| eval.resource_coords(j)))
                .collect();
            let mut slow = 0u32;
            for _ in 0..trials {
                let mut pick = universe.clone();
                pick.shuffle(&mut rng);
                pick.truncate(k);
                slow += u32::from(eval.evaluate_faulty_cells(&pick, &mut scratch));
            }
            let (f, s) = (f64::from(fast) / 400.0, f64::from(slow) / 400.0);
            assert!((f - s).abs() < 0.12, "k={k}: fast {f} vs slow {s}");
        }
    }

    #[test]
    fn exact_fault_trial_is_scratch_history_independent() {
        // The same RNG state must produce the same verdict regardless of
        // what the scratch was used for before.
        let (_, eval) = evaluator(DtmbKind::Dtmb36, 50);
        let mut fresh = eval.scratch();
        let mut used = eval.scratch();
        let mut rng_warm = StdRng::seed_from_u64(1);
        for k in [0usize, 2, 9, 5] {
            let _ = eval.exact_fault_trial(k, &mut rng_warm, &mut used);
        }
        for seed in 0..20 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                eval.exact_fault_trial(4, &mut a, &mut fresh),
                eval.exact_fault_trial(4, &mut b, &mut used),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn guaranteed_tolerable_bound_is_sound() {
        use crate::square_dtmb::SquarePattern;
        use dmfb_grid::SquareRegion;
        // Every scheme: any fault set of size <= bound must be tolerable.
        let check = |eval: &TrialEvaluator<dmfb_grid::SquareCoord>, label: &str| {
            let bound = eval.guaranteed_tolerable_faults();
            let mut scratch = eval.scratch();
            let mut rng = StdRng::seed_from_u64(0xB0);
            for k in 0..=bound.min(eval.cell_count()) {
                for _ in 0..200 {
                    assert!(
                        eval.exact_fault_trial(k, &mut rng, &mut scratch),
                        "{label}: {k} faults must be tolerable (bound {bound})"
                    );
                }
            }
        };
        let region = SquareRegion::rect(8, 8);
        for pattern in SquarePattern::ALL {
            let eval = TrialEvaluator::for_scheme(&region, &pattern);
            check(&eval, &format!("{pattern}"));
        }
        // Hex DTMB designs through the policy constructor.
        for kind in DtmbKind::ALL {
            let (_, eval) = evaluator(kind, 60);
            let bound = eval.guaranteed_tolerable_faults();
            let mut scratch = eval.scratch();
            let mut rng = StdRng::seed_from_u64(0xB1);
            for k in 0..=bound {
                for _ in 0..200 {
                    assert!(
                        eval.exact_fault_trial(k, &mut rng, &mut scratch),
                        "{kind}: {k} faults must be tolerable (bound {bound})"
                    );
                }
            }
            assert!(bound >= 1, "{kind}: every primary borders a spare");
        }
        // No units at all: everything is tolerable.
        use std::collections::BTreeSet;
        let array = DtmbKind::Dtmb26A.with_primary_count(30);
        let empty = TrialEvaluator::new(&array, &ReconfigPolicy::UsedCells(BTreeSet::new()));
        assert_eq!(empty.guaranteed_tolerable_faults(), empty.cell_count());
    }

    #[test]
    #[should_panic(expected = "cannot inject")]
    fn exact_fault_trial_rejects_overfull() {
        let (_, eval) = evaluator(DtmbKind::Dtmb44, 20);
        let mut scratch = eval.scratch();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = eval.exact_fault_trial(eval.cell_count() + 1, &mut rng, &mut scratch);
    }

    #[test]
    fn spare_row_assignments_use_indestructible_resources() {
        use crate::shifted::SpareRowArray;
        use dmfb_grid::SquareCoord;
        let array = SpareRowArray::figure2_example();
        let eval = TrialEvaluator::for_scheme(&array.region(), &array);
        let mut scratch = eval.scratch();
        assert!(
            eval.evaluate_faulty_cells(&[SquareCoord::new(3, 4)], &mut scratch),
            "one faulty row fits the spare row"
        );
        let unit = (0..eval.unit_count())
            .find(|&u| eval.unit_coords(u).any(|c| c == SquareCoord::new(3, 4)))
            .expect("the faulty cell belongs to a module row");
        assert_eq!(eval.unit_coords(unit).count(), array.width() as usize);
        assert_eq!(eval.resource_count(), 1);
        assert_eq!(
            eval.resource_coords(0).count(),
            0,
            "spare rows are indestructible"
        );
    }

    #[test]
    fn spare_rows_through_generic_engine() {
        use crate::shifted::SpareRowArray;
        use dmfb_grid::SquareCoord;
        let array = SpareRowArray::figure2_example();
        let eval = TrialEvaluator::for_scheme(&array.region(), &array);
        assert_eq!(eval.unit_count(), 6);
        assert_eq!(eval.resource_count(), 1);
        let mut scratch = eval.scratch();
        // One faulty row: tolerable via the single spare row.
        assert!(eval.evaluate_faulty_cells(&[SquareCoord::new(3, 4)], &mut scratch));
        // Two distinct faulty rows exceed the spare row.
        assert!(!eval.evaluate_faulty_cells(
            &[SquareCoord::new(0, 0), SquareCoord::new(0, 3)],
            &mut scratch
        ));
        // Same-row faults count once.
        assert!(eval.evaluate_faulty_cells(
            &[SquareCoord::new(0, 2), SquareCoord::new(7, 2)],
            &mut scratch
        ));
        // Spare-row faults are ignored (legacy semantics).
        assert!(eval.evaluate_faulty_cells(&[SquareCoord::new(0, 6)], &mut scratch));
    }
}
