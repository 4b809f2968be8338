//! Pareto design-space search over redundancy schemes: "give me the
//! cheapest array that hits yield Y".
//!
//! The paper evaluates a handful of named DTMB/spare-row configurations
//! by hand; this module inverts that. [`run_search`] enumerates the
//! discrete candidate space — DTMB(a,b) designs × [`SquarePattern`]s ×
//! spare-row counts × array dimensions, capped by a [`SearchSpace`] —
//! and scores each candidate's redundancy-area overhead against its
//! yield at the requested tier:
//!
//! 1. **Exact pruning first.** Every candidate gets the Hall-bound
//!    Poisson-binomial ceiling
//!    [`TrialEvaluator::survival_upper_bound`](dmfb_reconfig::TrialEvaluator::survival_upper_bound)
//!    — a closed form, no sampling. Candidates whose ceiling already
//!    falls below the target yield are hopeless and are never simulated,
//!    which is what lets the search spend ~4k stratified trials per
//!    survivor instead of 40k naive trials per candidate.
//! 2. **Stratified scoring.** Survivors run the defect-count-stratified
//!    estimator (the same engine `dmfb yield --estimator stratified`
//!    uses) for a tight confidence interval at rare-failure targets.
//! 3. **Pareto frontier.** The scored candidates reduce to the
//!    non-dominated set of (area overhead, yield) points, stably ordered
//!    by ascending overhead.
//!
//! Results are a pure function of (spec space, target, trials, seed):
//! candidate `i` draws its seed from `SeedSequence::nth_seed(seed, i)`
//! over the *enumeration* index, candidates fan out over
//! [`parallel_map`] with single-threaded engines inside, so the report
//! is byte-identical at any `--threads` setting.

use crate::engine::{DefectModel, Engine, Estimate, Estimator, Query};
use crate::spec::{EngineSpec, SchemeSpec, Tier};
use dmfb_bioassay::layout::{fabricated_ivd_chip, ivd_dtmb26_chip};
use dmfb_bioassay::TimingBudget;
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::SquarePattern;
use dmfb_sim::{parallel_map, SeedSequence, StratifiedConfig, StratifiedEstimate};
use dmfb_yield::operational::DEFAULT_SLACK;
use dmfb_yield::{AssayPanel, OperationalYield};

/// Trials a naive (non-stratified, non-pruned) scorer would spend per
/// candidate to reach comparable confidence at rare-failure targets; the
/// JSON report quotes `candidates × NAIVE_TRIALS_PER_CANDIDATE` as the
/// avoided cost.
pub const NAIVE_TRIALS_PER_CANDIDATE: u64 = 40_000;

/// Caps on the enumerated candidate space. The ladders are fixed;
/// the caps trim them so CI smoke runs stay small while `--max-*` flags
/// can widen the space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchSpace {
    /// Largest hex primary-cell count to enumerate.
    pub max_primaries: usize,
    /// Largest square-lattice dimension (width/height/module rows).
    pub max_dim: u32,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            max_primaries: 100,
            max_dim: 16,
        }
    }
}

impl SearchSpace {
    /// The deterministic candidate enumeration, in stable order: hex
    /// designs (including the no-redundancy baseline) over the primaries
    /// ladder, square patterns over the side ladder, spare-row
    /// configurations over width × module-rows × spare-rows.
    #[must_use]
    pub fn candidates(&self, tier: Tier) -> Vec<SchemeSpec> {
        let mut out = Vec::new();
        const DESIGNS: [Option<DtmbKind>; 6] = [
            None,
            Some(DtmbKind::Dtmb16),
            Some(DtmbKind::Dtmb26A),
            Some(DtmbKind::Dtmb26B),
            Some(DtmbKind::Dtmb36),
            Some(DtmbKind::Dtmb44),
        ];
        for design in DESIGNS {
            for primaries in [30usize, 60, 100, 200, 500] {
                if primaries <= self.max_primaries {
                    out.push(SchemeSpec::HexDtmb { design, primaries });
                }
            }
        }
        // Raw yield is defined over the hex chip's primary cells only
        // (the same rule the serve validator enforces).
        if tier == Tier::Raw {
            return out;
        }
        const PATTERNS: [SquarePattern; 4] = [
            SquarePattern::PerfectCode,
            SquarePattern::Stripes,
            SquarePattern::Checkerboard,
            SquarePattern::Quarter,
        ];
        for pattern in PATTERNS {
            for side in [8u32, 12, 16, 24, 32] {
                if side <= self.max_dim {
                    out.push(SchemeSpec::SquareDtmb {
                        pattern,
                        width: side,
                        height: side,
                    });
                }
            }
        }
        for width in [8u32, 16] {
            for module_rows in [4u32, 6, 8] {
                if width <= self.max_dim && module_rows <= self.max_dim {
                    for spare_rows in 0u32..=4 {
                        out.push(SchemeSpec::SpareRows {
                            width,
                            module_rows,
                            spare_rows,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One search invocation: target, tier, statistics, and the space caps.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// The yield the caller wants to reach.
    pub target_yield: f64,
    /// Which yield tier candidates are scored on.
    pub tier: Tier,
    /// Assay panel for the operational tier (`None` otherwise).
    pub assay: Option<AssayPanel>,
    /// Per-cell survival probability.
    pub p: f64,
    /// Stratified trial budget per surviving candidate.
    pub trials: u32,
    /// Master seed; candidate `i` draws `SeedSequence::nth_seed(seed, i)`.
    pub seed: u64,
    /// Worker threads across candidates (`0` = one per core). Never
    /// changes any number in the report.
    pub threads: usize,
    /// Candidate-space caps.
    pub space: SearchSpace,
    /// Stratified-estimator tuning for the scoring runs.
    pub stratified: StratifiedConfig,
}

impl SearchConfig {
    /// A search at the given target with every other knob at its default.
    #[must_use]
    pub fn new(target_yield: f64) -> Self {
        SearchConfig {
            target_yield,
            tier: Tier::Reconfigured,
            assay: None,
            p: 0.95,
            trials: 4_000,
            seed: 1,
            threads: 0,
            space: SearchSpace::default(),
            stratified: StratifiedConfig::default(),
        }
    }
}

/// One scored candidate row.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateScore {
    /// Canonical spec string (see [`SchemeSpec::canonical`]).
    pub spec: String,
    /// Primary (functional) cell count.
    pub primary_cells: usize,
    /// Spare (redundant) cell count.
    pub spare_cells: usize,
    /// Redundancy-area overhead: `spare_cells / primary_cells`.
    pub overhead: f64,
    /// Exact Hall-bound ceiling on the yield (1.0 when no bound applies).
    pub bound_hi: f64,
    /// Exact guaranteed-tolerance floor on the yield.
    pub bound_lo: f64,
    /// Whether the exact ceiling pruned the candidate before sampling.
    pub pruned: bool,
    /// Estimated yield at the requested tier (`None` for pruned rows).
    pub yield_point: Option<f64>,
    /// 95% confidence interval around `yield_point` (0/0 when pruned;
    /// degenerate when the estimate resolved exactly).
    pub ci_lo: f64,
    /// Upper end of the interval.
    pub ci_hi: f64,
    /// Trials actually spent on this candidate.
    pub trials_used: u64,
}

impl CandidateScore {
    /// Whether this row's estimate reaches the target.
    #[must_use]
    pub fn meets(&self, target: f64) -> bool {
        self.yield_point.is_some_and(|y| y >= target)
    }
}

/// The full search outcome: every scored candidate plus the Pareto
/// frontier and the cost bookkeeping the acceptance gate reads.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReport {
    /// The target yield the search ran against.
    pub target_yield: f64,
    /// The tier candidates were scored on.
    pub tier: Tier,
    /// Assay panel (operational tier only).
    pub assay: Option<AssayPanel>,
    /// Per-cell survival probability.
    pub p: f64,
    /// Per-candidate stratified budget.
    pub trials: u32,
    /// Master seed.
    pub seed: u64,
    /// Size of the enumerated candidate space.
    pub candidates: usize,
    /// Candidates eliminated by the exact bound before any sampling.
    pub pruned: usize,
    /// Candidates that were actually simulated.
    pub evaluated: usize,
    /// Monte-Carlo trials actually spent, summed over all candidates.
    pub trials_used: u64,
    /// What naive 40k-per-candidate scoring would have cost.
    pub naive_trials: u64,
    /// Every candidate in enumeration order.
    pub scored: Vec<CandidateScore>,
    /// The non-dominated (overhead, yield) rows, ascending overhead.
    pub frontier: Vec<CandidateScore>,
}

impl SearchReport {
    /// The cheapest frontier row meeting the target, if any.
    #[must_use]
    pub fn best(&self) -> Option<&CandidateScore> {
        self.frontier
            .iter()
            .find(|row| row.meets(self.target_yield))
    }
}

/// A candidate row before scoring: cell counts and overhead, no estimate.
fn unscored_row(spec: String, (primary_cells, spare_cells): (usize, usize)) -> CandidateScore {
    CandidateScore {
        spec,
        primary_cells,
        spare_cells,
        overhead: if primary_cells == 0 {
            0.0
        } else {
            spare_cells as f64 / primary_cells as f64
        },
        bound_hi: 1.0,
        bound_lo: 0.0,
        pruned: false,
        yield_point: None,
        ci_lo: 0.0,
        ci_hi: 0.0,
        trials_used: 0,
    }
}

/// Scores one scheme-shaped candidate: exact bounds, prune-or-sample,
/// one row out.
fn score_scheme(spec: &SchemeSpec, config: &SearchConfig, seed: u64) -> CandidateScore {
    let engine = Engine::build(&EngineSpec::Scheme(*spec), 1);
    let mut row = unscored_row(spec.canonical(), engine.cell_counts());
    if config.tier == Tier::Raw {
        // Raw yield has a closed form: every in-scope primary cell must
        // survive. No sampling, no pruning.
        let y = dmfb_yield::analytical::no_redundancy_yield(config.p, row.primary_cells);
        row.yield_point = Some(y);
        row.ci_lo = y;
        row.ci_hi = y;
        row.bound_hi = y;
        row.bound_lo = y;
        return row;
    }
    (row.bound_lo, row.bound_hi) = engine.survival_bounds(config.p);
    if row.bound_hi < config.target_yield {
        row.pruned = true;
        return row;
    }
    let query = Query {
        estimator: Estimator::Stratified(config.stratified),
        defect_model: DefectModel::Bernoulli,
        p: config.p,
        trials: config.trials,
        seed,
    };
    let tiers = engine.estimate(&query);
    let [(_, Estimate::Stratified(estimate))] = tiers.as_slice() else {
        unreachable!("scheme engines answer the reconfigured tier only")
    };
    fill_estimate(&mut row, estimate);
    row
}

/// Copies a stratified estimate into a candidate row.
fn fill_estimate(row: &mut CandidateScore, estimate: &StratifiedEstimate) {
    (row.ci_lo, row.ci_hi) = estimate.ci95();
    row.yield_point = Some(estimate.point);
    row.trials_used = estimate.trials;
}

/// The operational-tier candidate space: the paper's fabricated IVD chip
/// (no redundancy) against the DTMB(2,6) redesign, both running `panel`
/// under the used-cells policy. The assay fixes the working area, so the
/// space is the chip choice itself.
fn operational_candidates(panel: AssayPanel) -> Vec<(String, dmfb_bioassay::ChipDescription)> {
    vec![
        (
            format!("assay:{}:chip=fabricated", panel.label()),
            fabricated_ivd_chip(),
        ),
        (
            format!("assay:{}:chip=dtmb26", panel.label()),
            ivd_dtmb26_chip(),
        ),
    ]
}

/// Scores one operational candidate chip.
fn score_operational(
    label: &str,
    chip: &dmfb_bioassay::ChipDescription,
    panel: AssayPanel,
    config: &SearchConfig,
    seed: u64,
) -> CandidateScore {
    let mut row = unscored_row(
        label.to_string(),
        (chip.array.primary_count(), chip.array.spare_count()),
    );
    let batch = panel.batch();
    let budget = TimingBudget::with_slack(chip, &batch, DEFAULT_SLACK)
        .expect("the case-study chips run their own panels");
    let engine = OperationalYield::new(chip.clone(), batch, budget).with_threads(1);
    let estimate = engine.estimate_stratified(config.p, config.trials, seed, &config.stratified);
    // The stratified operational estimate reports the shared trial spend
    // once; raw/reconfigured ride the same draws.
    fill_estimate(&mut row, &estimate.operational);
    row
}

/// Reduces scored rows to the Pareto-optimal set: sort by ascending
/// overhead (ties: higher yield, then spec string for stability), then
/// keep each row only if it strictly improves the best yield seen at
/// lower-or-equal overhead. Pruned rows carry no estimate and cannot be
/// frontier members.
#[must_use]
pub fn pareto_frontier(scored: &[CandidateScore]) -> Vec<CandidateScore> {
    let mut rows: Vec<&CandidateScore> =
        scored.iter().filter(|r| r.yield_point.is_some()).collect();
    rows.sort_by(|a, b| {
        a.overhead
            .total_cmp(&b.overhead)
            .then_with(|| b.yield_point.unwrap().total_cmp(&a.yield_point.unwrap()))
            .then_with(|| a.spec.cmp(&b.spec))
    });
    let mut frontier: Vec<CandidateScore> = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for row in rows {
        let y = row.yield_point.unwrap();
        if y > best {
            best = y;
            frontier.push(row.clone());
        }
    }
    frontier
}

/// Runs the full search. See the module docs for the three stages; the
/// report is a pure function of the config (thread count excluded).
#[must_use]
pub fn run_search(config: &SearchConfig) -> SearchReport {
    let scored: Vec<CandidateScore> = match (config.tier, config.assay) {
        (Tier::Operational, Some(panel)) => {
            let chips = operational_candidates(panel);
            parallel_map(config.threads, &chips, |i, (label, chip)| {
                score_operational(
                    label,
                    chip,
                    panel,
                    config,
                    SeedSequence::nth_seed(config.seed, i as u64),
                )
            })
        }
        _ => {
            let candidates = config.space.candidates(config.tier);
            parallel_map(config.threads, &candidates, |i, spec| {
                score_scheme(spec, config, SeedSequence::nth_seed(config.seed, i as u64))
            })
        }
    };
    let pruned = scored.iter().filter(|r| r.pruned).count();
    let trials_used: u64 = scored.iter().map(|r| r.trials_used).sum();
    let frontier = pareto_frontier(&scored);
    SearchReport {
        target_yield: config.target_yield,
        tier: config.tier,
        assay: config.assay,
        p: config.p,
        trials: config.trials,
        seed: config.seed,
        candidates: scored.len(),
        pruned,
        evaluated: scored.len() - pruned,
        trials_used,
        naive_trials: scored.len() as u64 * NAIVE_TRIALS_PER_CANDIDATE,
        scored,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SearchConfig {
        let mut config = SearchConfig::new(0.9);
        config.trials = 400;
        config.space = SearchSpace {
            max_primaries: 30,
            max_dim: 8,
        };
        config.threads = 1;
        config
    }

    #[test]
    fn enumeration_is_stable_and_capped() {
        let space = SearchSpace {
            max_primaries: 100,
            max_dim: 16,
        };
        let all = space.candidates(Tier::Reconfigured);
        // 6 designs × 3 primaries + 4 patterns × 3 sides + 2 × 3 × 5 spare rows.
        assert_eq!(all.len(), 18 + 12 + 30);
        assert_eq!(all, space.candidates(Tier::Reconfigured));
        let raw = space.candidates(Tier::Raw);
        assert_eq!(raw.len(), 18);
        assert!(raw.iter().all(|s| matches!(s, SchemeSpec::HexDtmb { .. })));
    }

    #[test]
    fn pruning_eliminates_hopeless_candidates_without_trials() {
        let mut config = small_config();
        config.target_yield = 0.99;
        let report = run_search(&config);
        assert!(report.pruned > 0, "no-redundancy candidates must be pruned");
        assert!(
            report
                .scored
                .iter()
                .filter(|r| r.pruned)
                .all(|r| r.trials_used == 0 && r.yield_point.is_none()),
            "pruned rows must not spend trials"
        );
        assert!(report.trials_used < report.naive_trials);
    }

    #[test]
    fn frontier_has_no_dominated_rows() {
        let report = run_search(&small_config());
        for a in &report.frontier {
            for b in &report.frontier {
                if std::ptr::eq(a, b) {
                    continue;
                }
                let dominates = b.overhead <= a.overhead
                    && b.yield_point.unwrap() >= a.yield_point.unwrap()
                    && (b.overhead < a.overhead || b.yield_point.unwrap() > a.yield_point.unwrap());
                assert!(!dominates, "{} dominates {}", b.spec, a.spec);
            }
        }
        // Stable ascending order.
        for pair in report.frontier.windows(2) {
            assert!(pair[0].overhead < pair[1].overhead);
            assert!(pair[0].yield_point.unwrap() < pair[1].yield_point.unwrap());
        }
    }

    #[test]
    fn reports_are_thread_count_invariant() {
        let mut config = small_config();
        let one = run_search(&config);
        config.threads = 0;
        let auto = run_search(&config);
        assert_eq!(one, auto);
    }

    #[test]
    fn raw_tier_is_exact_and_free() {
        let mut config = small_config();
        config.tier = Tier::Raw;
        let report = run_search(&config);
        assert_eq!(report.trials_used, 0);
        for row in &report.scored {
            let y = row.yield_point.unwrap();
            let expected = config.p.powi(row.primary_cells as i32);
            assert!((y - expected).abs() < 1e-12);
        }
    }
}
