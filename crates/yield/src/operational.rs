//! Operational (assay-aware) yield: the paper's three-tier story.
//!
//! The manufacturing-yield machinery in this crate answers "*can the chip
//! be reconfigured?*". The paper's case study (Section 7) asks one
//! question more: after reconfiguration, does the chip still **run the
//! multiplexed in-vitro-diagnostics bioassay** — every dispenser, mixer
//! and detector remapped onto a live cell, every droplet route intact
//! around the faults, the whole protocol finishing within its timing
//! budget? A chip can be matching-feasible and operationally dead.
//!
//! [`OperationalYield`] reports all three tiers side by side, per
//! Monte-Carlo trial on the same random chip:
//!
//! 1. **raw** — no in-scope (assay) cell is faulty at all: the
//!    no-reconfiguration baseline;
//! 2. **reconfigured** — every faulty assay cell gets a distinct adjacent
//!    live spare (bipartite matching, via
//!    [`TrialEvaluator::reconfigure`]);
//! 3. **operational** — the reconfigured chip's remapped resources still
//!    schedule the assay panel within budget
//!    ([`FeasibilityChecker`]).
//!
//! Per trial, operational ⟹ reconfigured ⟸ raw, so the estimates always
//! satisfy `operational ≤ reconfigured` and `raw ≤ reconfigured` — the
//! ordering the property tests pin down. Every estimate runs through one
//! 64-lane block runner over the deterministic tally engine of
//! `dmfb-sim`: results depend only on `(trials, seed)`, never on thread
//! count or block width, and sweeps share each trial's random chip across
//! the whole survival grid (common random numbers).
//!
//! # Example
//!
//! ```
//! use dmfb_yield::operational::{AssayPanel, OperationalYield};
//!
//! let engine = OperationalYield::ivd(AssayPanel::StandardIvd);
//! let e = engine.estimate(0.95, 60, 7);
//! assert!(e.operational.point() <= e.reconfigured.point());
//! assert!(e.raw.point() <= e.reconfigured.point());
//! ```

use crate::scheme_yield::DEFAULT_BLOCK_TRIALS;
use dmfb_bioassay::feasibility::{FeasibilityChecker, TimingBudget};
use dmfb_bioassay::layout::{ivd_dtmb26_chip, used_cells_policy};
use dmfb_bioassay::{ChipDescription, MultiplexedIvd};
use dmfb_defects::block::{fault_threshold, BlockSampler};
use dmfb_defects::DefectMap;
use dmfb_graph::words::{lane_mask, LANES};
use dmfb_grid::{HexCoord, SlotIndex};
use dmfb_reconfig::{ReconfigPolicy, TrialEvaluator, TrialScratch};
use dmfb_sim::{
    BernoulliEstimate, MonteCarlo, StratifiedConfig, StratifiedEstimate, StratifiedMonteCarlo,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which assay workload the operational check runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssayPanel {
    /// The paper's Figure 11 configuration: two samples × two reagents,
    /// four concurrent measurements ([`MultiplexedIvd::standard_panel`]).
    StandardIvd,
    /// The extended eight-measurement panel covering all four metabolites
    /// ([`MultiplexedIvd::full_metabolic_panel`]).
    FullMetabolic,
}

impl AssayPanel {
    /// Both panels, in CLI listing order.
    pub const ALL: [AssayPanel; 2] = [AssayPanel::StandardIvd, AssayPanel::FullMetabolic];

    /// The CLI tag for this panel (`--assay <label>`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AssayPanel::StandardIvd => "ivd-panel",
            AssayPanel::FullMetabolic => "metabolic-panel",
        }
    }

    /// Builds the panel's request batch.
    ///
    /// # Example
    ///
    /// ```
    /// use dmfb_yield::operational::AssayPanel;
    ///
    /// assert_eq!(AssayPanel::StandardIvd.batch().requests.len(), 4);
    /// assert_eq!(AssayPanel::FullMetabolic.batch().requests.len(), 8);
    /// ```
    #[must_use]
    pub fn batch(&self) -> MultiplexedIvd {
        match self {
            AssayPanel::StandardIvd => MultiplexedIvd::standard_panel(),
            AssayPanel::FullMetabolic => MultiplexedIvd::full_metabolic_panel(),
        }
    }
}

impl std::fmt::Display for AssayPanel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for AssayPanel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AssayPanel::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| format!("unknown assay '{s}' (valid: ivd-panel, metabolic-panel)"))
    }
}

/// Default timing slack for the relative budget: the reconfigured chip may
/// spend up to 50% more protocol time than the fault-free chip before it
/// counts as operationally dead.
pub const DEFAULT_SLACK: f64 = 1.5;

/// The three-tier verdict for one explicit chip instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrialVerdict {
    /// No in-scope (assay) cell is faulty: good without reconfiguration.
    pub raw: bool,
    /// Necessary condition for reconfigurability: every faulty in-scope
    /// cell has at least one live adjacent spare (the singleton Hall
    /// bound). `reconfigured` implies this.
    pub survivor_bound: bool,
    /// A full primary→spare matching covers the faulty in-scope cells.
    pub reconfigured: bool,
    /// The reconfigured chip still schedules the assay panel in budget.
    pub operational: bool,
}

/// One `(p, raw, reconfigured, operational)` estimate row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperationalEstimate {
    /// The cell-survival probability evaluated.
    pub p: f64,
    /// Tier 1: yield without any reconfiguration.
    pub raw: BernoulliEstimate,
    /// Tier 2: yield with local reconfiguration (matching feasibility).
    pub reconfigured: BernoulliEstimate,
    /// Tier 3: yield with reconfiguration *and* assay-level feasibility.
    pub operational: BernoulliEstimate,
}

/// The three-tier estimate from the defect-count-stratified rare-event
/// estimator: one [`StratifiedEstimate`] per tier, all drawn from the same
/// shared per-stratum trial placements.
#[derive(Clone, Debug, PartialEq)]
pub struct StratifiedOperationalEstimate {
    /// The cell-survival probability evaluated.
    pub p: f64,
    /// Tier 1: yield without any reconfiguration.
    pub raw: StratifiedEstimate,
    /// Tier 2: yield with local reconfiguration (matching feasibility).
    pub reconfigured: StratifiedEstimate,
    /// Tier 3: yield with reconfiguration *and* assay-level feasibility.
    pub operational: StratifiedEstimate,
}

/// Monte-Carlo estimator of raw, reconfigured and operational yield on one
/// chip description — the engine behind `dmfb yield --assay`.
///
/// # Example
///
/// ```
/// use dmfb_yield::operational::{AssayPanel, OperationalYield};
/// use dmfb_defects::DefectMap;
///
/// let engine = OperationalYield::ivd(AssayPanel::StandardIvd);
/// // A fault-free chip passes all three tiers.
/// let v = engine.evaluate_map(&DefectMap::new());
/// assert!(v.raw && v.reconfigured && v.operational);
/// ```
#[derive(Clone, Debug)]
pub struct OperationalYield {
    checker: FeasibilityChecker,
    evaluator: TrialEvaluator<HexCoord>,
    /// All array cells in deterministic order — the fault-draw index space
    /// (faults *outside* the scope still block droplet routes).
    cells: Vec<HexCoord>,
    /// Whether the fault-free chip meets the budget (the shortcut verdict
    /// for fault-free trials).
    clean_feasible: bool,
    threads: usize,
    /// Trials per block of the sweep path: [`DEFAULT_BLOCK_TRIALS`]
    /// outside the width-invariance unit tests.
    width: usize,
}

impl OperationalYield {
    /// The paper's case study: the DTMB(2,6) in-vitro-diagnostics chip
    /// (252 primaries + 91 spares, 108 assay cells) running `panel` under
    /// the used-cells policy and the [`DEFAULT_SLACK`] relative budget.
    #[must_use]
    pub fn ivd(panel: AssayPanel) -> Self {
        let chip = ivd_dtmb26_chip();
        let batch = panel.batch();
        let budget = TimingBudget::with_slack(&chip, &batch, DEFAULT_SLACK)
            .expect("the case-study chip runs its own panels");
        OperationalYield::new(chip, batch, budget)
    }

    /// Builds an engine for an arbitrary chip description and batch. The
    /// reconfiguration scope is the chip's `assay_cells` (the used-cells
    /// policy of the paper's case study).
    #[must_use]
    pub fn new(chip: ChipDescription, batch: MultiplexedIvd, budget: TimingBudget) -> Self {
        let policy: ReconfigPolicy = used_cells_policy(&chip);
        let evaluator = TrialEvaluator::new(&chip.array, &policy);
        let cells: Vec<HexCoord> = chip.array.region().iter().collect();
        let checker = FeasibilityChecker::new(chip, batch, budget);
        let clean_feasible = checker.is_feasible(&DefectMap::new(), None);
        OperationalYield {
            checker,
            evaluator,
            cells,
            clean_feasible,
            threads: 1,
            width: DEFAULT_BLOCK_TRIALS,
        }
    }

    /// Distributes trials across `threads` worker threads (`0` = one
    /// worker per available core). Results are identical regardless of
    /// thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs sweep blocks of `width` trials; estimates must not change.
    #[cfg(test)]
    fn with_width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// The chip under evaluation.
    #[must_use]
    pub fn chip(&self) -> &ChipDescription {
        self.checker.chip()
    }

    /// The timing budget the operational tier enforces.
    #[must_use]
    pub fn budget(&self) -> TimingBudget {
        self.checker.budget()
    }

    /// Evaluates one explicit chip instance through all three tiers (plus
    /// the survivor bound the property tests sandwich `reconfigured`
    /// against). Allocates its own scratch; the Monte-Carlo paths reuse
    /// per-worker scratches instead.
    #[must_use]
    pub fn evaluate_map(&self, defects: &DefectMap) -> TrialVerdict {
        let mut scratch = self.evaluator.scratch();
        self.verdict(defects, &mut scratch)
    }

    /// The three-tier verdict for `defects`, using caller-owned scratch.
    fn verdict(&self, defects: &DefectMap, scratch: &mut TrialScratch) -> TrialVerdict {
        let (raw, survivor_bound) = self.bound(defects);
        // A faulty cell with no live spare can never be matched.
        let (reconfigured, operational) = if survivor_bound {
            self.reconfigure(defects, scratch)
        } else {
            (false, false)
        };
        TrialVerdict {
            raw,
            survivor_bound,
            reconfigured,
            operational,
        }
    }

    /// The raw tier and the survivor bound of `defects`: whether no assay
    /// cell is faulty, and whether every faulty one has a live adjacent
    /// spare.
    fn bound(&self, defects: &DefectMap) -> (bool, bool) {
        let (scope, array) = (&self.chip().assay_cells, &self.chip().array);
        let mut raw = true;
        for cell in defects.faulty_cells().filter(|&c| scope.contains(c)) {
            raw = false;
            if !array.adjacent_spares(cell).any(|s| !defects.is_faulty(s)) {
                return (false, false);
            }
        }
        (raw, true)
    }

    /// The reconfigured and operational tiers of `defects`, whose survivor
    /// bound holds.
    fn reconfigure(&self, defects: &DefectMap, scratch: &mut TrialScratch) -> (bool, bool) {
        match self.evaluator.reconfigure(defects, scratch) {
            Err(_) => (false, false),
            Ok(_) if defects.is_fault_free() => (true, self.clean_feasible),
            Ok(plan) => (true, self.checker.is_feasible(defects, Some(&plan))),
        }
    }

    /// Per-worker buffers for [`OperationalYield::run_block`].
    fn block_state(&self) -> BlockState {
        BlockState {
            sampler: BlockSampler::new(&[]),
            fault_words: vec![0; self.cells.len()],
            maps: Vec::with_capacity(LANES),
            scratch: self.evaluator.scratch(),
        }
    }

    /// The one block runner behind every estimate. For each 64-lane group
    /// of `seeds` and each of `points` slots, `stage(group, j, state)`
    /// stages the group's fault words for slot `j` into
    /// `state.fault_words` and returns whether it also left each lane's
    /// own [`DefectMap`] in `state.maps`. The slot is then decided in
    /// three word-parallel tiers, adding `(raw, reconfigured,
    /// operational)` counts into `out[3j..3j+3]`:
    ///
    /// 1. **fault-free lanes** — no fault anywhere: raw, reconfigured
    ///    and (iff the clean chip meets budget) operational, no matcher
    ///    or router invoked;
    /// 2. **survivor-bound failures** — some in-scope faulty cell has
    ///    every adjacent spare faulty: all three tiers false, decided by
    ///    an AND-fold over the spare columns;
    /// 3. **gray lanes** — faults present, survivor bound holds: the
    ///    lane's map (the staged one, or else rebuilt from its bits with
    ///    every fault an open connection) takes the scalar matcher and
    ///    assay feasibility check. The raw tier is always counted
    ///    word-parallel (`!scope_fault`).
    fn run_block(
        &self,
        plan: &BlockPlan,
        seeds: &[u64],
        points: usize,
        state: &mut BlockState,
        out: &mut [u64],
        stage: impl Fn(&[u64], usize, &mut BlockState) -> bool,
    ) {
        for group in seeds.chunks(LANES) {
            let live = lane_mask(group.len());
            for j in 0..points {
                let staged_maps = stage(group, j, state);
                let words = &state.fault_words;
                let fault_any = words.iter().fold(0u64, |acc, &w| acc | w);
                let mut scope_fault = 0u64;
                let mut survivor_fail = 0u64;
                for (k, &sc) in plan.scope_idx.iter().enumerate() {
                    let w = words[sc as usize];
                    scope_fault |= w;
                    let spares = &plan.adj_idx
                        [plan.adj_offsets[k] as usize..plan.adj_offsets[k + 1] as usize];
                    // All-ones when the scope cell has no adjacent spare:
                    // any fault there is then an automatic bound failure,
                    // matching the scalar `any()` over an empty iterator.
                    let all_dead = spares
                        .iter()
                        .fold(u64::MAX, |acc, &s| acc & words[s as usize]);
                    survivor_fail |= w & all_dead;
                }
                let fault_free = live & !fault_any;
                let raw = live & !scope_fault;
                let out = &mut out[3 * j..3 * j + 3];
                out[0] += u64::from(raw.count_ones());
                out[1] += u64::from(fault_free.count_ones());
                if self.clean_feasible {
                    out[2] += u64::from(fault_free.count_ones());
                }
                let mut gray = live & fault_any & !survivor_fail;
                while gray != 0 {
                    let lane = gray.trailing_zeros() as usize;
                    gray &= gray - 1;
                    let bit = 1u64 << lane;
                    let rebuilt;
                    let defects = if staged_maps {
                        &state.maps[lane]
                    } else {
                        rebuilt = DefectMap::from_cells(
                            self.cells
                                .iter()
                                .zip(words)
                                .filter(|(_, &w)| w & bit != 0)
                                .map(|(&c, _)| c),
                        );
                        &rebuilt
                    };
                    debug_assert_eq!(
                        self.bound(defects),
                        (raw & bit != 0, true),
                        "word tiers disagree with the scalar raw tier and survivor bound"
                    );
                    let (reconfigured, operational) = self.reconfigure(defects, &mut state.scratch);
                    out[1] += u64::from(reconfigured);
                    out[2] += u64::from(operational);
                }
            }
        }
    }

    /// Estimates all three tiers at survival probability `p`. Thread-count
    /// invariant; depends only on `(trials, seed)`.
    #[must_use]
    pub fn estimate(&self, p: f64, trials: u32, seed: u64) -> OperationalEstimate {
        self.sweep(&[p], trials, seed)
            .pop()
            .expect("one grid point in, one estimate out")
    }

    /// Estimates all three tiers under an **arbitrary defect sampler** —
    /// the hook the clustered wafer-defect model and campaigns ride:
    /// `sample` draws one chip instance's defect map per trial (all
    /// randomness from the provided RNG). The reported `p` is
    /// [`f64::NAN`] because no single survival probability parameterises
    /// the model. Thread-count invariant; depends only on
    /// `(trials, seed)`.
    ///
    /// Each lane calls `sample` on its own trial RNG and ORs the map's
    /// cells into the fault words, so the block tiers decide it like any
    /// other; a gray lane's verdict reads the sampled map itself, whose
    /// causes matter (the router blocks only catastrophic faults).
    ///
    /// # Panics
    ///
    /// Panics if `sample` marks a cell outside the chip's array.
    #[must_use]
    pub fn estimate_with(
        &self,
        trials: u32,
        seed: u64,
        sample: impl Fn(&mut StdRng) -> DefectMap + Sync,
    ) -> OperationalEstimate {
        let plan = BlockPlan::new(self.chip(), &self.cells);
        let estimates = self.tally(&plan, trials, seed, 1, |group, _, state| {
            state.fault_words.fill(0);
            state.maps.clear();
            for (lane, &s) in group.iter().enumerate() {
                let map = sample(&mut StdRng::seed_from_u64(s));
                for cell in map.faulty_cells() {
                    let i = plan.position(cell).unwrap_or_else(|| {
                        panic!("sampled fault {cell:?} is not a cell of the chip's array")
                    });
                    state.fault_words[i] |= 1 << lane;
                }
                state.maps.push(map);
            }
            true
        });
        Self::rows(&[f64::NAN], &estimates)
            .pop()
            .expect("one row in, one estimate out")
    }

    /// Estimates all three tiers with the **defect-count-stratified**
    /// rare-event estimator: the chip's fault count `K` is binomial over
    /// all array cells, so each tier's yield decomposes as
    /// `Σₖ P(K=k)·P(tier | K=k)`; every stratum places exactly `k` faults
    /// uniformly (`BlockSampler::exact_fault_words`, 64 lanes at a time)
    /// and pushes the same random chip through all three tiers. The
    /// assay pipeline makes each trial expensive, which is precisely
    /// where skipping the defect-free bulk pays the most.
    ///
    /// Thread-count invariant; depends only on `(budget, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn estimate_stratified(
        &self,
        p: f64,
        budget: u32,
        seed: u64,
        config: &StratifiedConfig,
    ) -> StratifiedOperationalEstimate {
        assert!(
            (0.0..=1.0).contains(&p),
            "survival probability must be in [0, 1], got {p}"
        );
        let n = self.cells.len();
        let plan = BlockPlan::new(self.chip(), &self.cells);
        let tiers = StratifiedMonteCarlo::new(n, budget, seed)
            .with_threads(self.threads)
            .with_config(*config)
            .estimate_block(
                1.0 - p,
                self.width,
                3,
                || self.block_state(),
                |k, seeds, state, out| {
                    self.run_block(&plan, seeds, 1, state, out, |group, _, state| {
                        state.sampler.reseed(group);
                        state
                            .sampler
                            .exact_fault_words(n, k, &mut state.fault_words);
                        false
                    });
                },
            );
        let [raw, reconfigured, operational]: [StratifiedEstimate; 3] =
            tiers.try_into().expect("three outcomes");
        StratifiedOperationalEstimate {
            p,
            raw,
            reconfigured,
            operational,
        }
    }

    /// Sweeps an **ascending** survival grid in one batched Monte-Carlo
    /// pass: each trial draws one random chip and reports all three tiers
    /// at every `p` (common random numbers across the grid). Per 64-lane
    /// group, each grid point re-seeds the sampler and draws every cell at
    /// its own threshold: the same seeds give the same draws with no
    /// stored copy of them. Results are byte-identical for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not sorted ascending.
    #[must_use]
    pub fn sweep(&self, ps: &[f64], trials: u32, seed: u64) -> Vec<OperationalEstimate> {
        assert!(
            ps.windows(2).all(|w| w[0] <= w[1]),
            "survival grid must be ascending"
        );
        let plan = BlockPlan::new(self.chip(), &self.cells);
        let estimates = self.tally(&plan, trials, seed, ps.len(), |group, j, state| {
            state.sampler.reseed(group);
            let threshold = fault_threshold(ps[j]);
            state
                .sampler
                .fill_fault_words(threshold, &mut state.fault_words);
            false
        });
        Self::rows(ps, &estimates)
    }

    /// Runs `trials` trials through [`OperationalYield::run_block`] with
    /// `points` slots each: a `3 * points` tally.
    fn tally(
        &self,
        plan: &BlockPlan,
        trials: u32,
        seed: u64,
        points: usize,
        stage: impl Fn(&[u64], usize, &mut BlockState) -> bool + Sync,
    ) -> Vec<BernoulliEstimate> {
        MonteCarlo::new(trials, seed).tally_blocks_with(
            self.threads,
            self.width,
            3 * points,
            || self.block_state(),
            |seeds, state, out| self.run_block(plan, seeds, points, state, out, &stage),
        )
    }

    /// Regroups a `3 * ps.len()` tally into one three-tier row per `p`.
    fn rows(ps: &[f64], estimates: &[BernoulliEstimate]) -> Vec<OperationalEstimate> {
        ps.iter()
            .enumerate()
            .map(|(j, &p)| OperationalEstimate {
                p,
                raw: estimates[3 * j],
                reconfigured: estimates[3 * j + 1],
                operational: estimates[3 * j + 2],
            })
            .collect()
    }
}

/// Word-parallel tier geometry, built once per estimate. All indices are
/// positions in the fault-draw cell order (`OperationalYield::cells`).
struct BlockPlan {
    /// Dense slots over the array's bounding box.
    slots: SlotIndex,
    /// Each slot's position, `u32::MAX` for a slot off the array.
    positions: Vec<u32>,
    /// Positions of the in-scope assay cells.
    scope_idx: Vec<u32>,
    /// CSR offsets into `adj_idx`, aligned with `scope_idx`.
    adj_offsets: Vec<u32>,
    /// Each scope cell's adjacent-spare positions, CSR-packed.
    adj_idx: Vec<u32>,
}

impl BlockPlan {
    /// Locates `chip`'s assay cells and their adjacent spares in the
    /// fault-draw order `cells`.
    fn new(chip: &ChipDescription, cells: &[HexCoord]) -> Self {
        let slots = SlotIndex::covering(chip.array.region());
        let mut positions = vec![u32::MAX; slots.slot_count()];
        for (i, &cell) in cells.iter().enumerate() {
            positions[slots.slot(cell).expect("array cells lie in its box")] = i as u32;
        }
        let mut plan = BlockPlan {
            slots,
            positions,
            scope_idx: Vec::new(),
            adj_offsets: vec![0],
            adj_idx: Vec::new(),
        };
        for cell in chip.assay_cells.iter() {
            let Some(i) = plan.position(cell) else {
                continue;
            };
            plan.scope_idx.push(i as u32);
            for spare in chip.array.adjacent_spares(cell) {
                let j = plan.position(spare).expect("spares lie in the array");
                plan.adj_idx.push(j as u32);
            }
            let end = u32::try_from(plan.adj_idx.len()).expect("adjacency fits u32");
            plan.adj_offsets.push(end);
        }
        plan
    }

    /// `cell`'s position in the fault-draw order, if it is an array cell.
    fn position(&self, cell: HexCoord) -> Option<usize> {
        let i = self.positions[self.slots.slot(cell)?];
        (i != u32::MAX).then_some(i as usize)
    }
}

/// Per-worker buffers for the block runner: the lock-step sampler, the
/// per-cell fault words of the current group and slot, the lanes' defect
/// maps, and the matcher scratch.
struct BlockState {
    sampler: BlockSampler,
    fault_words: Vec<u64>,
    maps: Vec<DefectMap>,
    scratch: TrialScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn engine() -> OperationalYield {
        OperationalYield::ivd(AssayPanel::StandardIvd)
    }

    /// Adds one trial's three tiers into a `(raw, reconfigured,
    /// operational)` count triple.
    fn add(out: &mut [u64], v: TrialVerdict) {
        out[0] += u64::from(v.raw);
        out[1] += u64::from(v.reconfigured);
        out[2] += u64::from(v.operational);
    }

    /// The scalar oracle of [`OperationalYield::sweep`]: one trial at a
    /// time, a single uniform per cell shared across every `p` (common
    /// random numbers), then each grid point's chip instance through the
    /// three tiers. Slots `3j..3j+3` receive `(raw, reconfigured,
    /// operational)` for `ps[j]`.
    fn scalar_sweep(
        eng: &OperationalYield,
        ps: &[f64],
        trials: u32,
        seed: u64,
    ) -> Vec<OperationalEstimate> {
        let estimates = MonteCarlo::new(trials, seed).tally_blocks_with(
            1,
            1,
            3 * ps.len(),
            || eng.evaluator.scratch(),
            |seeds, scratch, out| {
                let mut rng = StdRng::seed_from_u64(seeds[0]);
                let uniforms: Vec<f64> = eng.cells.iter().map(|_| rng.gen()).collect();
                for (j, &p) in ps.iter().enumerate() {
                    let defects = DefectMap::from_cells(
                        eng.cells
                            .iter()
                            .zip(&uniforms)
                            .filter(|(_, &u)| u >= p)
                            .map(|(&c, _)| c),
                    );
                    add(&mut out[3 * j..], eng.verdict(&defects, scratch));
                }
            },
        );
        OperationalYield::rows(ps, &estimates)
    }

    /// The per-trial oracle of [`OperationalYield::estimate_with`]: one
    /// sampled map per trial, straight into the scalar verdict.
    fn scalar_with(
        eng: &OperationalYield,
        trials: u32,
        seed: u64,
        sample: impl Fn(&mut StdRng) -> DefectMap + Sync,
    ) -> OperationalEstimate {
        let estimates = MonteCarlo::new(trials, seed).tally_blocks_with(
            1,
            1,
            3,
            || eng.evaluator.scratch(),
            |seeds, scratch, out| {
                let defects = sample(&mut StdRng::seed_from_u64(seeds[0]));
                add(out, eng.verdict(&defects, scratch));
            },
        );
        OperationalYield::rows(&[f64::NAN], &estimates)
            .pop()
            .unwrap()
    }

    /// The per-trial oracle of [`OperationalYield::estimate_stratified`]:
    /// each trial places exactly `k` faults by a scalar partial
    /// Fisher–Yates on an identity-reset index buffer, then takes the
    /// scalar verdict.
    fn scalar_stratified(
        eng: &OperationalYield,
        p: f64,
        budget: u32,
        seed: u64,
    ) -> [StratifiedEstimate; 3] {
        let cells = &eng.cells;
        StratifiedMonteCarlo::new(cells.len(), budget, seed)
            .estimate_block(
                1.0 - p,
                1,
                3,
                || eng.evaluator.scratch(),
                |k, seeds, scratch, out| {
                    for &seed in seeds {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut perm: Vec<u32> = (0..cells.len() as u32).collect();
                        for i in 0..k {
                            perm.swap(i, rng.gen_range(i..cells.len()));
                        }
                        let defects =
                            DefectMap::from_cells(perm[..k].iter().map(|&i| cells[i as usize]));
                        add(out, eng.verdict(&defects, scratch));
                    }
                },
            )
            .try_into()
            .unwrap()
    }

    #[test]
    fn panel_metadata_round_trips() {
        for p in AssayPanel::ALL {
            assert_eq!(p.label().parse::<AssayPanel>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
            assert!(!p.batch().requests.is_empty());
        }
        assert!("nope".parse::<AssayPanel>().is_err());
    }

    #[test]
    fn extremes() {
        let eng = engine();
        let perfect = eng.estimate(1.0, 100, 1);
        assert_eq!(perfect.raw.point(), 1.0);
        assert_eq!(perfect.reconfigured.point(), 1.0);
        assert_eq!(perfect.operational.point(), 1.0);
        let dead = eng.estimate(0.0, 50, 1);
        assert_eq!(dead.raw.point(), 0.0);
        assert_eq!(dead.reconfigured.point(), 0.0);
        assert_eq!(dead.operational.point(), 0.0);
    }

    #[test]
    fn tier_ordering_holds_at_moderate_survival() {
        let eng = engine();
        let e = eng.estimate(0.95, 400, 9);
        assert!(e.operational.successes() <= e.reconfigured.successes());
        assert!(e.raw.successes() <= e.reconfigured.successes());
        // The paper's story: reconfiguration rescues far more chips than
        // survive raw at p = 0.95 (raw ≈ 0.95^108 ≈ 0.004).
        assert!(e.reconfigured.point() > e.raw.point() + 0.3);
    }

    #[test]
    fn estimates_are_thread_invariant() {
        let eng = engine();
        let seq = eng.estimate(0.96, 300, 21);
        for threads in [0, 2, 5] {
            let par = eng.clone().with_threads(threads).estimate(0.96, 300, 21);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn sweep_shares_trials_and_is_monotone_per_tier() {
        let eng = engine();
        let ps = [0.93, 0.97, 1.0];
        let rows = eng.sweep(&ps, 300, 5);
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            // Common random numbers: each tier's fault sets shrink as p
            // grows, and raw/reconfigured are monotone in the fault set.
            assert!(w[1].raw.successes() >= w[0].raw.successes());
            assert!(w[1].reconfigured.successes() >= w[0].reconfigured.successes());
        }
        for r in &rows {
            assert!(r.operational.successes() <= r.reconfigured.successes());
        }
        assert_eq!(rows.last().unwrap().operational.point(), 1.0);
        // Single-point estimate is the sweep's column.
        let single = eng.estimate(0.93, 300, 5);
        assert_eq!(single, rows[0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn sweep_rejects_unsorted_grids() {
        let _ = engine().sweep(&[0.9, 0.5], 10, 1);
    }

    #[test]
    fn stratified_tiers_keep_their_ordering() {
        let eng = engine();
        let e = eng.estimate_stratified(0.999, 400, 11, &StratifiedConfig::default());
        assert!(e.operational.point <= e.reconfigured.point + 1e-12);
        assert!(e.raw.point <= e.reconfigured.point + 1e-12);
        // All tiers share one allocation, so the spent trials agree.
        assert_eq!(e.raw.trials, e.operational.trials);
        // The raw tier varies with fault placement for every k >= 1, so
        // no structural bound applies: all non-unique strata are sampled
        // and the honest (smoothed) variance is strictly positive.
        assert!(e.raw.variance > 0.0);
        assert!(e.operational.variance > 0.0);
        // The defect-free stratum still dominates at p = 0.999, so the
        // estimator cannot do *worse* than naive sampling would.
        assert!(
            e.reconfigured.effective_trials() >= 0.5 * e.reconfigured.trials as f64,
            "effective {} vs spent {}",
            e.reconfigured.effective_trials(),
            e.reconfigured.trials
        );
    }

    #[test]
    fn stratified_agrees_with_naive_tiers() {
        let eng = engine();
        let p = 0.99;
        let naive = eng.estimate(p, 800, 19);
        let strat = eng.estimate_stratified(p, 800, 19, &StratifiedConfig::default());
        for (name, n, s) in [
            ("raw", &naive.raw, &strat.raw),
            ("reconfigured", &naive.reconfigured, &strat.reconfigured),
            ("operational", &naive.operational, &strat.operational),
        ] {
            let (lo, hi) = n.wilson95();
            let slack = 4.0 * (s.std_error() + (hi - lo) / 2.0 / 1.96) + s.truncated_mass + 0.01;
            assert!(
                (n.point() - s.point).abs() < slack,
                "{name}: naive {} vs stratified {}",
                n.point(),
                s.point
            );
        }
    }

    #[test]
    fn stratified_is_thread_invariant() {
        let eng = engine();
        let seq = eng.estimate_stratified(0.995, 300, 23, &StratifiedConfig::default());
        for threads in [0, 3] {
            let par = eng.clone().with_threads(threads).estimate_stratified(
                0.995,
                300,
                23,
                &StratifiedConfig::default(),
            );
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn defect_sampler_hook_runs_the_three_tiers() {
        use dmfb_defects::injection::{Bernoulli, InjectionModel};
        let eng = engine();
        let region = eng.chip().array.region().clone();
        let model = Bernoulli::from_survival(0.97);
        let e = eng.estimate_with(300, 7, |rng| model.inject(&region, rng));
        assert!(e.p.is_nan(), "no single p parameterises a sampler");
        assert!(e.operational.successes() <= e.reconfigured.successes());
        assert!(e.raw.successes() <= e.reconfigured.successes());
        // Matches the Bernoulli engine statistically.
        let direct = eng.estimate(0.97, 300, 7);
        assert!(
            (e.reconfigured.point() - direct.reconfigured.point()).abs() < 0.1,
            "{} vs {}",
            e.reconfigured.point(),
            direct.reconfigured.point()
        );
        // Thread invariance.
        let par = eng
            .clone()
            .with_threads(4)
            .estimate_with(300, 7, |rng| model.inject(&region, rng));
        assert_eq!(par.reconfigured, e.reconfigured);
        assert_eq!(par.operational, e.operational);
    }

    #[test]
    fn verdict_on_explicit_single_fault() {
        let eng = engine();
        let mixer_cell = eng.chip().mixers[0].rendezvous();
        let v = eng.evaluate_map(&DefectMap::from_cells([mixer_cell]));
        assert!(!v.raw, "an assay-cell fault kills the raw tier");
        assert!(v.survivor_bound && v.reconfigured);
        assert!(v.operational, "one fault reconfigures and still schedules");
    }

    #[test]
    fn block_engine_is_byte_identical_to_scalar() {
        let eng = engine();
        let ps = [0.93, 0.97, 1.0];
        let scalar = scalar_sweep(&eng, &ps, 200, 5);
        assert_eq!(eng.sweep(&ps, 200, 5), scalar);
        for width in [1, 33, 64, 150] {
            let block = eng.clone().with_width(width);
            assert_eq!(block.sweep(&ps, 200, 5), scalar, "width={width}");
        }
        // Thread invariance holds inside the block engine too.
        let threaded = eng.clone().with_width(64).with_threads(3);
        assert_eq!(threaded.sweep(&ps, 200, 5), scalar);
    }

    #[test]
    fn grid_points_equal_one_point_estimates() {
        // A multi-point sweep re-draws each point from the same seeds;
        // each of its rows must equal the one-point estimate at any block
        // width.
        let eng = engine();
        let ps = [0.0, 0.9, 0.9, 0.97, 1.0];
        for width in [1, 64, 65, 200] {
            let block = eng.clone().with_width(width);
            let rows = block.sweep(&ps, 130, 9);
            for (row, &p) in rows.iter().zip(&ps) {
                assert_eq!(*row, block.estimate(p, 130, 9), "width={width} p={p}");
                assert_eq!(block.sweep(&[p], 130, 9), [*row], "width={width} p={p}");
            }
        }
    }

    #[test]
    fn sampled_lanes_keep_their_causes() {
        // Catastrophic background faults plus parametric drift: the router
        // blocks only the former, so a gray lane must take its sampled
        // map, not one rebuilt from its fault bits.
        use dmfb_defects::injection::{Bernoulli, InjectionModel};
        use dmfb_defects::parametric::ParametricModel;
        let eng = engine();
        let region = eng.chip().array.region().clone();
        let background = Bernoulli::from_survival(0.985);
        let drift = ParametricModel::new(0.04, 0.1);
        let sample = |rng: &mut StdRng| {
            background
                .inject(&region, rng)
                .merged(&drift.inject(&region, rng))
        };
        let oracle = scalar_with(&eng, 200, 3, sample);
        let rebuilt = scalar_with(&eng, 200, 3, |rng| {
            DefectMap::from_cells(sample(rng).faulty_cells())
        });
        assert!(
            oracle.operational.successes() > rebuilt.operational.successes(),
            "the sampler must tell causes apart: {oracle:?} vs {rebuilt:?}"
        );
        assert_eq!(oracle.reconfigured, rebuilt.reconfigured);
        // NaN rows never compare equal; compare the tiers.
        let tiers = |e: &OperationalEstimate| [e.raw, e.reconfigured, e.operational];
        for width in [1, 63, 64, 65, 200] {
            for threads in [1, 3] {
                let block = eng.clone().with_width(width).with_threads(threads);
                let e = block.estimate_with(200, 3, sample);
                assert!(e.p.is_nan());
                assert_eq!(tiers(&e), tiers(&oracle), "width={width} threads={threads}");
            }
        }
    }

    #[test]
    fn stratified_block_runner_replays_scalar_fisher_yates() {
        let eng = engine();
        let config = StratifiedConfig::default();
        // Many small strata at p = 0.99; at p = 0.999 the Neyman phase
        // runs more than 64 trials in one stratum, so groups split.
        for (p, budget) in [(0.99, 300), (0.999, 1_200)] {
            let oracle = scalar_stratified(&eng, p, budget, 13);
            let most = oracle[0].strata.iter().map(|s| s.estimate.trials()).max();
            assert!(p < 0.999 || most > Some(2 * 64), "{most:?}");
            for width in [1, 63, 64, 65, 200] {
                for threads in [1, 3] {
                    let block = eng.clone().with_width(width).with_threads(threads);
                    let e = block.estimate_stratified(p, budget, 13, &config);
                    assert_eq!(
                        [e.raw, e.reconfigured, e.operational],
                        oracle,
                        "p={p} width={width} threads={threads}"
                    );
                }
            }
        }
    }
}
