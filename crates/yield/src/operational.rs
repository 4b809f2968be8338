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
//! ordering the property tests pin down. Estimates ride the deterministic
//! parallel tally engine of `dmfb-sim`: results depend only on
//! `(trials, seed)`, never on thread count, and sweeps share each trial's
//! random chip across the whole survival grid (common random numbers).
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

use crate::scheme_yield::YieldPoint;
use crate::scheme_yield::DEFAULT_BLOCK_TRIALS;
use dmfb_bioassay::feasibility::{FeasibilityChecker, TimingBudget};
use dmfb_bioassay::layout::{ivd_dtmb26_chip, used_cells_policy};
use dmfb_bioassay::{ChipDescription, MultiplexedIvd};
use dmfb_defects::block::{fault_threshold, BlockSampler};
use dmfb_defects::operational::MtbfModel;
use dmfb_defects::DefectMap;
use dmfb_graph::words::{pack_ge, LANES};
use dmfb_grid::HexCoord;
use dmfb_reconfig::{ReconfigPolicy, TrialEvaluator, TrialScratch};
use dmfb_sim::{
    BernoulliEstimate, MonteCarlo, StratifiedConfig, StratifiedEstimate, StratifiedMonteCarlo,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

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

/// In-service wear configuration: an MTBF model plus the service horizon
/// after which the chip is evaluated.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Wear {
    model: MtbfModel,
    horizon_hours: f64,
}

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

impl OperationalEstimate {
    /// The operational tier as a plottable [`YieldPoint`].
    #[must_use]
    pub fn operational_point(&self) -> YieldPoint {
        YieldPoint::from_estimate(self.p, &self.operational)
    }
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
    /// The in-scope cells whose faults matter (the assay cells).
    scope: BTreeSet<HexCoord>,
    /// All array cells in deterministic order — the fault-draw index space
    /// (faults *outside* the scope still block droplet routes).
    cells: Vec<HexCoord>,
    /// Whether the fault-free chip meets the budget (the shortcut verdict
    /// for fault-free trials).
    clean_feasible: bool,
    wear: Option<Wear>,
    threads: usize,
    /// Engine selection for the Bernoulli sweep path: `None` = auto
    /// (block engine at [`DEFAULT_BLOCK_TRIALS`]), `Some(0)` = scalar,
    /// `Some(n)` = block engine with `n`-trial batches.
    block_trials: Option<usize>,
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
        let scope: BTreeSet<HexCoord> = chip.assay_cells.iter().collect();
        let cells: Vec<HexCoord> = chip.array.region().iter().collect();
        let checker = FeasibilityChecker::new(chip, batch, budget);
        let clean_feasible = checker.is_feasible(&DefectMap::new(), None);
        OperationalYield {
            checker,
            evaluator,
            scope,
            cells,
            clean_feasible,
            wear: None,
            threads: 1,
            block_trials: None,
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

    /// Selects the trial engine for [`OperationalYield::sweep`] and
    /// [`OperationalYield::estimate`]: `None` (the default) auto-selects
    /// the word-parallel block engine at [`DEFAULT_BLOCK_TRIALS`] trials
    /// per batch, `Some(0)` forces the scalar per-trial engine, and
    /// `Some(n)` runs the block engine with `n`-trial batches. Engines
    /// and batch widths are byte-identical; the stratified and
    /// defect-sampler paths always run scalar.
    #[must_use]
    pub fn with_block_trials(mut self, block_trials: Option<usize>) -> Self {
        self.block_trials = block_trials;
        self
    }

    /// The batch width the sweep path should run at, or `None` for the
    /// scalar engine.
    fn block_width(&self) -> Option<usize> {
        match self.block_trials {
            Some(0) => None,
            Some(n) => Some(n),
            None => Some(DEFAULT_BLOCK_TRIALS),
        }
    }

    /// Adds in-service wear on top of the manufacturing fault draw: each
    /// trial also samples `model`'s dielectric-breakdown failures over
    /// `horizon_hours` of operation and folds them into the chip's defect
    /// map — the chip is evaluated *as fielded*, not as fabricated.
    #[must_use]
    pub fn with_wear(mut self, model: MtbfModel, horizon_hours: f64) -> Self {
        self.wear = Some(Wear {
            model,
            horizon_hours,
        });
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
        let array = &self.checker.chip().array;
        let mut raw = true;
        let mut survivor_bound = true;
        for cell in defects.faulty_cells() {
            if !self.scope.contains(&cell) {
                continue;
            }
            raw = false;
            if !array.adjacent_spares(cell).any(|s| !defects.is_faulty(s)) {
                survivor_bound = false;
                break;
            }
        }
        let plan = if survivor_bound {
            self.evaluator.reconfigure(defects, scratch)
        } else {
            // A faulty cell with no live spare can never be matched.
            None
        };
        let reconfigured = plan.is_some();
        let operational = match &plan {
            None => false,
            Some(_) if defects.is_fault_free() => self.clean_feasible,
            Some(plan) => self.checker.is_feasible(defects, Some(plan)),
        };
        TrialVerdict {
            raw,
            survivor_bound,
            reconfigured,
            operational,
        }
    }

    /// One trial against an ascending survival grid: a single uniform per
    /// cell is shared across every `p` (common random numbers), then each
    /// grid point's chip instance runs through the three tiers. Slots
    /// `3j..3j+3` of `out` receive `(raw, reconfigured, operational)` for
    /// `ps[j]`.
    fn trial_grid(&self, ps: &[f64], rng: &mut StdRng, state: &mut TrialState, out: &mut [bool]) {
        for u in state.uniforms.iter_mut() {
            *u = rng.gen();
        }
        let wear_map = self.wear.as_ref().map(|w| {
            w.model
                .inject_service_faults(self.checker.chip().array.region(), w.horizon_hours, rng)
        });
        for (j, &p) in ps.iter().enumerate() {
            let mut defects = DefectMap::from_cells(
                self.cells
                    .iter()
                    .zip(&state.uniforms)
                    .filter(|(_, &u)| u >= p)
                    .map(|(&c, _)| c),
            );
            if let Some(wear) = &wear_map {
                defects = defects.merged(wear);
            }
            let v = self.verdict(&defects, &mut state.scratch);
            out[3 * j] = v.raw;
            out[3 * j + 1] = v.reconfigured;
            out[3 * j + 2] = v.operational;
        }
    }

    /// Precomputes the word-parallel sweep geometry: where the in-scope
    /// assay cells sit in the fault-draw index space, and (per scope
    /// cell, CSR-packed) where their adjacent spares sit — so the block
    /// engine can evaluate the raw tier and the survivor bound on whole
    /// fault words without touching a [`DefectMap`].
    fn block_plan(&self) -> BlockPlan {
        let index_of: BTreeMap<HexCoord, u32> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let array = &self.checker.chip().array;
        let mut scope_idx = Vec::new();
        let mut adj_offsets = vec![0u32];
        let mut adj_idx = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if !self.scope.contains(cell) {
                continue;
            }
            scope_idx.push(i as u32);
            for s in array.adjacent_spares(*cell) {
                adj_idx.push(index_of[&s]);
            }
            adj_offsets.push(u32::try_from(adj_idx.len()).expect("adjacency fits u32"));
        }
        BlockPlan {
            scope_idx,
            adj_offsets,
            adj_idx,
            index_of,
        }
    }

    /// One batch of up-to-64-lane trial groups against the ascending
    /// grid. Per 64-lane group the sampler draws every cell's mantissa
    /// column once (common random numbers across the grid), the wear
    /// model (if any) continues each lane's stream exactly where the
    /// scalar engine would, and each grid point is then decided in three
    /// word-parallel tiers:
    ///
    /// 1. **fault-free lanes** — no fault anywhere: raw, reconfigured
    ///    and (iff the clean chip meets budget) operational, no matcher
    ///    or router invoked;
    /// 2. **survivor-bound failures** — some in-scope faulty cell has
    ///    every adjacent spare faulty: all three tiers false, decided by
    ///    an AND-fold over the spare columns;
    /// 3. **residue lanes** — faults present, survivor bound holds: the
    ///    defect map is rebuilt from the lane's bit column and runs the
    ///    scalar verdict (matcher + assay feasibility). The raw tier is
    ///    always counted word-parallel (`!scope_fault`).
    fn sweep_block(
        &self,
        plan: &BlockPlan,
        ps: &[f64],
        seeds: &[u64],
        state: &mut BlockState,
        out: &mut [u64],
    ) {
        let n = self.cells.len();
        for chunk in seeds.chunks(LANES) {
            state.sampler.reseed(chunk);
            let live = state.sampler.live_mask();
            for i in 0..n {
                let col: &mut [u64; LANES] = (&mut state.mantissa[i * LANES..(i + 1) * LANES])
                    .try_into()
                    .expect("column is LANES wide");
                state.sampler.mantissas(col);
            }
            state.wear_maps.clear();
            state.wear_words.iter_mut().for_each(|w| *w = 0);
            if let Some(w) = &self.wear {
                for lane in 0..chunk.len() {
                    let mut rng = state.sampler.resume_lane(lane);
                    let map = w.model.inject_service_faults(
                        self.checker.chip().array.region(),
                        w.horizon_hours,
                        &mut rng,
                    );
                    for cell in map.faulty_cells() {
                        state.wear_words[plan.index_of[&cell] as usize] |= 1u64 << lane;
                    }
                    state.wear_maps.push(map);
                }
            }
            for (j, &p) in ps.iter().enumerate() {
                let threshold = fault_threshold(p);
                let mut fault_any = 0u64;
                for i in 0..n {
                    let col: &[u64; LANES] = (&state.mantissa[i * LANES..(i + 1) * LANES])
                        .try_into()
                        .expect("column is LANES wide");
                    let mfg = pack_ge(col, threshold) & live;
                    state.mfg_words[i] = mfg;
                    let all = mfg | state.wear_words[i];
                    state.all_words[i] = all;
                    fault_any |= all;
                }
                let mut scope_fault = 0u64;
                let mut survivor_fail = 0u64;
                for (k, &sc) in plan.scope_idx.iter().enumerate() {
                    let w = state.all_words[sc as usize];
                    scope_fault |= w;
                    let spares = &plan.adj_idx
                        [plan.adj_offsets[k] as usize..plan.adj_offsets[k + 1] as usize];
                    // All-ones when the scope cell has no adjacent spare:
                    // any fault there is then an automatic bound failure,
                    // matching the scalar `any()` over an empty iterator.
                    let all_dead = spares
                        .iter()
                        .fold(u64::MAX, |acc, &s| acc & state.all_words[s as usize]);
                    survivor_fail |= w & all_dead;
                }
                let fault_free = live & !fault_any;
                let raw = live & !scope_fault;
                out[3 * j] += u64::from(raw.count_ones());
                out[3 * j + 1] += u64::from(fault_free.count_ones());
                if self.clean_feasible {
                    out[3 * j + 2] += u64::from(fault_free.count_ones());
                }
                let mut gray = live & fault_any & !survivor_fail;
                while gray != 0 {
                    let lane = gray.trailing_zeros() as usize;
                    gray &= gray - 1;
                    let bit = 1u64 << lane;
                    let mut defects = DefectMap::from_cells(
                        (0..n)
                            .filter(|&i| state.mfg_words[i] & bit != 0)
                            .map(|i| self.cells[i]),
                    );
                    if let Some(wear) = state.wear_maps.get(lane) {
                        defects = defects.merged(wear);
                    }
                    let v = self.verdict(&defects, &mut state.scratch);
                    debug_assert_eq!(
                        v.raw,
                        raw & bit != 0,
                        "word-parallel raw tier disagrees with the scalar verdict"
                    );
                    debug_assert!(v.survivor_bound, "survivor prefilter missed a failing lane");
                    out[3 * j + 1] += u64::from(v.reconfigured);
                    out[3 * j + 2] += u64::from(v.operational);
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
    /// the hook the clustered wafer-defect model rides: `sample` draws one
    /// chip instance's defect map per trial (all randomness from the
    /// provided RNG). The reported `p` is [`f64::NAN`] because no single
    /// survival probability parameterises the model. In-service wear, when
    /// configured, is drawn after the manufacturing sample, as in the
    /// Bernoulli paths. Thread-count invariant; depends only on
    /// `(trials, seed)`. Always runs the scalar engine — an arbitrary
    /// sampler's draw stream cannot be transposed into lanes.
    #[must_use]
    pub fn estimate_with(
        &self,
        trials: u32,
        seed: u64,
        sample: impl Fn(&mut StdRng) -> DefectMap + Sync,
    ) -> OperationalEstimate {
        let estimates = MonteCarlo::new(trials, seed).tally_parallel(
            self.threads,
            3,
            || self.evaluator.scratch(),
            |rng, scratch, out| {
                let mut defects = sample(rng);
                if let Some(w) = &self.wear {
                    defects = defects.merged(&w.model.inject_service_faults(
                        self.checker.chip().array.region(),
                        w.horizon_hours,
                        rng,
                    ));
                }
                let v = self.verdict(&defects, scratch);
                out[0] = v.raw;
                out[1] = v.reconfigured;
                out[2] = v.operational;
            },
        );
        OperationalEstimate {
            p: f64::NAN,
            raw: estimates[0],
            reconfigured: estimates[1],
            operational: estimates[2],
        }
    }

    /// Estimates all three tiers with the **defect-count-stratified**
    /// rare-event estimator: the chip's fault count `K` is binomial over
    /// all array cells, so each tier's yield decomposes as
    /// `Σₖ P(K=k)·P(tier | K=k)`; every stratum places exactly `k` faults
    /// uniformly and pushes the same random chip through all three tiers.
    /// The assay pipeline makes each trial expensive, which is precisely
    /// where skipping the defect-free bulk pays the most.
    ///
    /// Thread-count invariant; depends only on `(budget, seed)`. Always
    /// runs the scalar engine: the strata already skip the defect-free
    /// bulk, which is where the block tiers earn their keep.
    ///
    /// # Panics
    ///
    /// Panics if in-service wear is configured (stratification conditions
    /// on the *manufacturing* defect count alone) or `p` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn estimate_stratified(
        &self,
        p: f64,
        budget: u32,
        seed: u64,
        config: &StratifiedConfig,
    ) -> StratifiedOperationalEstimate {
        assert!(
            self.wear.is_none(),
            "stratified estimation conditions on the manufacturing defect count; \
             in-service wear is not supported"
        );
        assert!(
            (0.0..=1.0).contains(&p),
            "survival probability must be in [0, 1], got {p}"
        );
        let cells = &self.cells;
        let mut tiers = StratifiedMonteCarlo::new(cells.len(), budget, seed)
            .with_threads(self.threads)
            .with_config(*config)
            .estimate_multi(
                1.0 - p,
                3,
                || StratifiedState {
                    perm: (0..cells.len() as u32).collect(),
                    scratch: self.evaluator.scratch(),
                },
                |k, rng, state, out| {
                    // Exactly-k placement over all array cells: partial
                    // Fisher–Yates on an identity-reset index buffer, so
                    // the draw never depends on scratch history.
                    for (i, slot) in state.perm.iter_mut().enumerate() {
                        *slot = i as u32;
                    }
                    for i in 0..k {
                        let j = rng.gen_range(i..cells.len());
                        state.perm.swap(i, j);
                    }
                    let defects =
                        DefectMap::from_cells(state.perm[..k].iter().map(|&i| cells[i as usize]));
                    let v = self.verdict(&defects, &mut state.scratch);
                    out[0] = v.raw;
                    out[1] = v.reconfigured;
                    out[2] = v.operational;
                },
            );
        let operational = tiers.pop().expect("three outcomes");
        let reconfigured = tiers.pop().expect("three outcomes");
        let raw = tiers.pop().expect("three outcomes");
        StratifiedOperationalEstimate {
            p,
            raw,
            reconfigured,
            operational,
        }
    }

    /// Sweeps an **ascending** survival grid in one batched Monte-Carlo
    /// pass: each trial draws one random chip and reports all three tiers
    /// at every `p` (common random numbers across the grid). Results are
    /// byte-identical for any thread count, and for any engine or batch
    /// width selected via [`OperationalYield::with_block_trials`].
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
        let mc = MonteCarlo::new(trials, seed);
        let estimates = match self.block_width() {
            Some(width) => {
                let plan = self.block_plan();
                mc.tally_blocks_with(
                    self.threads,
                    width,
                    3 * ps.len(),
                    || BlockState {
                        sampler: BlockSampler::new(&[]),
                        mantissa: vec![0; self.cells.len() * LANES],
                        mfg_words: vec![0; self.cells.len()],
                        all_words: vec![0; self.cells.len()],
                        wear_words: vec![0; self.cells.len()],
                        wear_maps: Vec::new(),
                        scratch: self.evaluator.scratch(),
                    },
                    |seeds, state, out| self.sweep_block(&plan, ps, seeds, state, out),
                )
            }
            None => mc.tally_parallel(
                self.threads,
                3 * ps.len(),
                || TrialState {
                    uniforms: vec![0.0; self.cells.len()],
                    scratch: self.evaluator.scratch(),
                },
                |rng, state, out| self.trial_grid(ps, rng, state, out),
            ),
        };
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

/// Per-worker trial buffers: the per-cell uniform draw plus the matcher
/// scratch.
struct TrialState {
    uniforms: Vec<f64>,
    scratch: TrialScratch,
}

/// Word-parallel sweep geometry, precomputed once per sweep. All indices
/// are positions in the fault-draw cell order (`OperationalYield::cells`).
struct BlockPlan {
    /// Positions of the in-scope assay cells.
    scope_idx: Vec<u32>,
    /// CSR offsets into `adj_idx`, aligned with `scope_idx`.
    adj_offsets: Vec<u32>,
    /// Each scope cell's adjacent-spare positions, CSR-packed.
    adj_idx: Vec<u32>,
    /// `cells[i] → i`, for folding wear maps into lane bit columns.
    index_of: BTreeMap<HexCoord, u32>,
}

/// Per-worker buffers for the block engine: the lock-step sampler, the
/// per-cell mantissa columns shared across the grid, the per-cell
/// manufacturing/wear/combined fault words, the per-lane wear maps (for
/// residue-lane defect-map reconstruction) and the matcher scratch.
struct BlockState {
    sampler: BlockSampler,
    mantissa: Vec<u64>,
    mfg_words: Vec<u64>,
    all_words: Vec<u64>,
    wear_words: Vec<u64>,
    wear_maps: Vec<DefectMap>,
    scratch: TrialScratch,
}

/// Per-worker buffers for the stratified path: the exact-`k` placement
/// permutation plus the matcher scratch.
struct StratifiedState {
    perm: Vec<u32>,
    scratch: TrialScratch,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> OperationalYield {
        OperationalYield::ivd(AssayPanel::StandardIvd)
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
    fn wear_only_reduces_yield() {
        let eng = engine();
        let base = eng.estimate(0.97, 200, 13);
        let worn = eng
            .clone()
            .with_wear(MtbfModel::new(2_000.0, 1.0), 1_000.0)
            .estimate(0.97, 200, 13);
        assert!(worn.operational.successes() <= base.operational.successes());
        assert!(worn.reconfigured.successes() <= base.reconfigured.successes());
        assert!(worn.raw.successes() <= base.raw.successes());
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
            let slack = 4.0 * (s.std_error() + n.margin95() / 1.96) + s.truncated_mass + 0.01;
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
    #[should_panic(expected = "wear is not supported")]
    fn stratified_rejects_wear() {
        let eng = engine().with_wear(MtbfModel::new(2_000.0, 1.0), 100.0);
        let _ = eng.estimate_stratified(0.99, 100, 1, &StratifiedConfig::default());
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
    fn operational_point_conversion() {
        let e = engine().estimate(1.0, 10, 1);
        let pt = e.operational_point();
        assert_eq!(pt.x, 1.0);
        assert_eq!(pt.y, 1.0);
        assert_eq!(pt.trials, 10);
    }

    #[test]
    fn block_engine_is_byte_identical_to_scalar() {
        let eng = engine();
        let ps = [0.93, 0.97, 1.0];
        let scalar = eng.clone().with_block_trials(Some(0)).sweep(&ps, 200, 5);
        for block_trials in [None, Some(1), Some(64), Some(150)] {
            let block = eng
                .clone()
                .with_block_trials(block_trials)
                .sweep(&ps, 200, 5);
            assert_eq!(block, scalar, "block_trials={block_trials:?}");
        }
        // Thread invariance holds inside the block engine too.
        let threaded = eng
            .clone()
            .with_block_trials(Some(64))
            .with_threads(3)
            .sweep(&ps, 200, 5);
        assert_eq!(threaded, scalar);
    }

    #[test]
    fn block_engine_matches_scalar_under_wear() {
        // Wear draws must continue each lane's stream exactly where the
        // scalar engine's per-trial RNG left it after the cell uniforms.
        let eng = engine().with_wear(MtbfModel::new(2_000.0, 1.0), 1_000.0);
        let ps = [0.94, 0.99];
        let scalar = eng.clone().with_block_trials(Some(0)).sweep(&ps, 150, 3);
        for block_trials in [None, Some(33), Some(64)] {
            let block = eng
                .clone()
                .with_block_trials(block_trials)
                .sweep(&ps, 150, 3);
            assert_eq!(block, scalar, "block_trials={block_trials:?}");
        }
    }

    #[test]
    fn wear_trial_rng_keeps_grid_deterministic() {
        // The wear draw happens once per trial, after the uniforms; the
        // sweep must stay identical to single-point estimates per column.
        let eng = engine().with_wear(MtbfModel::new(5_000.0, 1.0), 500.0);
        let ps = [0.94, 0.99];
        let rows = eng.sweep(&ps, 150, 3);
        for (j, &p) in ps.iter().enumerate() {
            assert_eq!(rows[j], eng.estimate(p, 150, 3), "p={p}");
        }
    }
}
