//! Scheme-generic Monte-Carlo yield estimation.
//!
//! [`SchemeYield`] is the yield engine behind *every* redundancy design:
//! it owns a compiled [`TrialEvaluator`] (hex DTMB, square DTMB or
//! spare-row — anything implementing [`RedundancyScheme`]) and runs the
//! incremental bitset-matching fast path through the deterministic
//! parallel Monte-Carlo machinery of `dmfb-sim`. Estimates depend only on
//! `(trials, seed)`, never on thread count, and the batched sweep shares
//! common random numbers across the whole survival grid so each curve is
//! monotone trial-by-trial.
//!
//! Hexagonal DTMB arrays build it from an `(array, policy)` pair with
//! [`SchemeYield::new`]; every other scheme compiles through
//! [`SchemeYield::from_scheme`].

use dmfb_defects::DefectMap;
use dmfb_grid::{HexCoord, Topology};
use dmfb_reconfig::{DefectTolerantArray, ReconfigPolicy, RedundancyScheme, TrialEvaluator};
use dmfb_sim::{
    parallel_map, BernoulliEstimate, MonteCarlo, StratifiedConfig, StratifiedEstimate,
    StratifiedMonteCarlo,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// One `(parameter, yield)` sample of a yield curve, with its Monte-Carlo
/// confidence bounds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct YieldPoint {
    /// The swept parameter: survival probability `p` (Figure 9) or fault
    /// count `m` (Figure 13).
    pub x: f64,
    /// Estimated yield at `x`.
    pub y: f64,
    /// 95% Wilson interval around `y`.
    pub ci95: (f64, f64),
    /// Trials behind the estimate.
    pub trials: u64,
}

impl YieldPoint {
    /// Builds a point from a Bernoulli estimate at swept parameter `x`.
    #[must_use]
    pub fn from_estimate(x: f64, est: &BernoulliEstimate) -> Self {
        YieldPoint {
            x,
            y: est.point(),
            ci95: est.wilson95(),
            trials: est.trials(),
        }
    }
}

/// Splits a worker budget between sweep grid points (outer) and trials
/// within a point (inner) so no cores idle when the grid is shorter than
/// the thread count (`0` = one worker per available core). Results are
/// never affected: every estimate is thread-count-invariant.
fn sweep_thread_split(threads: usize, points: usize) -> (usize, usize) {
    let total = if threads == 0 {
        dmfb_sim::auto_threads()
    } else {
        threads
    };
    let outer = total.min(points.max(1));
    let inner = (total / outer.max(1)).max(1);
    (outer, inner)
}

/// One `(parameter, stratified estimate)` sample of a yield curve — the
/// rare-event counterpart of [`YieldPoint`], carrying the variance,
/// truncation and effective-trial bookkeeping of the stratified estimator.
#[derive(Clone, Debug, PartialEq)]
pub struct StratifiedPoint {
    /// The swept survival probability `p`.
    pub x: f64,
    /// The stratified estimate at `x`.
    pub estimate: StratifiedEstimate,
}

impl StratifiedPoint {
    /// Collapses the stratified bookkeeping into a plottable
    /// [`YieldPoint`] (the CI is the stratified normal-approximation
    /// interval, the trial count the trials actually spent).
    #[must_use]
    pub fn to_yield_point(&self) -> YieldPoint {
        YieldPoint {
            x: self.x,
            y: self.estimate.point,
            ci95: self.estimate.ci95(),
            trials: self.estimate.trials,
        }
    }
}

/// Default block width (trials per [`MonteCarlo::run_blocks_with`] seed
/// group) when the engine is left on auto — a few word groups per block
/// keeps the per-block seed-derivation overhead negligible without
/// starving the thread scheduler of blocks.
pub const DEFAULT_BLOCK_TRIALS: usize = 256;

/// The hexagonal engine under its historic name. The benchmark harness in
/// `perfbench/tracer` is frozen against the library's public names and
/// calls `MonteCarloYield::new(array, policy)`, so the name stays.
///
/// # Example
///
/// ```
/// use dmfb_reconfig::dtmb::DtmbKind;
/// use dmfb_reconfig::ReconfigPolicy;
/// use dmfb_yield::MonteCarloYield;
///
/// let array = DtmbKind::Dtmb44.with_primary_count(50);
/// let est = MonteCarloYield::new(array, ReconfigPolicy::AllPrimaries)
///     .estimate_survival(0.95, 2_000, 7);
/// assert!(est.point() > 0.5);
/// ```
pub type MonteCarloYield = SchemeYield;

/// Monte-Carlo yield estimator generic over the redundancy scheme.
///
/// # Example
///
/// ```
/// use dmfb_grid::SquareRegion;
/// use dmfb_reconfig::SquarePattern;
/// use dmfb_yield::SchemeYield;
///
/// let region = SquareRegion::rect(12, 12);
/// let est = SchemeYield::from_scheme(&region, &SquarePattern::Checkerboard);
/// let y = est.estimate_survival(0.95, 2_000, 7);
/// assert!(y.point() > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct SchemeYield<C: Copy + Ord = HexCoord> {
    label: String,
    evaluator: TrialEvaluator<C>,
    threads: usize,
    /// `None` = auto ([`DEFAULT_BLOCK_TRIALS`]); `Some(0)` = scalar
    /// engine; `Some(n)` = block engine with width `n`.
    block_trials: Option<usize>,
}

impl SchemeYield {
    /// Compiles a hexagonal DTMB `array` under `policy`: units are the
    /// in-scope primaries, resources the spares bordering them (see
    /// [`TrialEvaluator::new`]). Defaults to single-threaded execution.
    #[must_use]
    pub fn new(array: DefectTolerantArray, policy: ReconfigPolicy) -> Self {
        let label = array
            .kind()
            .map_or("no-redundancy".to_string(), |k| k.to_string());
        SchemeYield::from_evaluator(label, TrialEvaluator::new(&array, &policy))
    }
}

impl<C: Copy + Ord + Send + Sync> SchemeYield<C> {
    /// Compiles `scheme` over `topo` into the fast evaluator. Defaults to
    /// single-threaded execution; see [`SchemeYield::with_threads`].
    #[must_use]
    pub fn from_scheme<T>(topo: &T, scheme: &impl RedundancyScheme<T>) -> Self
    where
        T: Topology<Coord = C>,
    {
        SchemeYield {
            label: scheme.label(),
            evaluator: TrialEvaluator::for_scheme(topo, scheme),
            threads: 1,
            block_trials: None,
        }
    }

    /// Wraps an already-built evaluator.
    #[must_use]
    pub fn from_evaluator(label: impl Into<String>, evaluator: TrialEvaluator<C>) -> Self {
        SchemeYield {
            label: label.into(),
            evaluator,
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

    /// Selects the trial engine: `None` leaves the word-parallel block
    /// engine on auto ([`DEFAULT_BLOCK_TRIALS`] trials per block),
    /// `Some(0)` forces the scalar per-trial engine, and `Some(n)` runs
    /// blocks of `n` trials. The choice never changes any estimate — the
    /// block engine is byte-identical to the scalar one at every width —
    /// only how fast it is computed.
    #[must_use]
    pub fn with_block_trials(mut self, block_trials: Option<usize>) -> Self {
        self.block_trials = block_trials;
        self
    }

    /// The effective block width: `None` means the scalar engine.
    fn block_width(&self) -> Option<usize> {
        match self.block_trials {
            Some(0) => None,
            Some(n) => Some(n),
            None => Some(DEFAULT_BLOCK_TRIALS),
        }
    }

    /// The scheme label (used in reports and bench artifacts).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The compiled evaluator.
    #[must_use]
    pub fn evaluator(&self) -> &TrialEvaluator<C> {
        &self.evaluator
    }

    /// Evaluates one explicit fault set and, when it is tolerable, returns
    /// the **assignment** behind the verdict — one `(unit, resource)`
    /// index pair per faulty unit — instead of a bare bool. `None` means
    /// the chip cannot be reconfigured. Map indices to lattice cells with
    /// [`TrialEvaluator::unit_coords`] / [`TrialEvaluator::resource_coords`].
    ///
    /// # Example
    ///
    /// ```
    /// use dmfb_grid::{SquareCoord, SquareRegion};
    /// use dmfb_reconfig::SquarePattern;
    /// use dmfb_yield::SchemeYield;
    ///
    /// let est = SchemeYield::from_scheme(&SquareRegion::rect(8, 8), &SquarePattern::Checkerboard);
    /// let pairs = est
    ///     .assignment(&[SquareCoord::new(1, 0)])
    ///     .expect("one fault on a checkerboard is tolerable");
    /// assert_eq!(pairs.len(), 1);
    /// ```
    #[must_use]
    pub fn assignment(&self, faulty: &[C]) -> Option<Vec<(usize, usize)>> {
        let mut scratch = self.evaluator.scratch();
        self.evaluator
            .evaluate_faulty_cells_assignment(faulty, &mut scratch)
    }

    /// Estimates yield when every relevant cell survives independently
    /// with probability `p`. On the (default) block engine, trials run 64
    /// per word through the tiered sample → classify → match pipeline of
    /// [`dmfb_reconfig::block`]; on the scalar engine
    /// ([`SchemeYield::with_block_trials`]`(Some(0))`), one at a time
    /// through [`TrialEvaluator::survival_trial`]. Both give byte-identical
    /// estimates for any thread count.
    #[must_use]
    pub fn estimate_survival(&self, p: f64, trials: u32, seed: u64) -> BernoulliEstimate {
        let mc = MonteCarlo::new(trials, seed);
        match self.block_width() {
            Some(width) => mc.run_blocks_with(
                self.threads,
                width,
                || self.evaluator.block_scratch(),
                |seeds, block| self.evaluator.survival_block(p, seeds, block),
            ),
            None => mc.run_parallel_with(
                self.threads,
                || self.evaluator.scratch(),
                |rng, scratch| self.evaluator.survival_trial(p, rng, scratch),
            ),
        }
    }

    /// Estimates yield with the **defect-count-stratified** rare-event
    /// estimator: the survival probability is decomposed as
    /// `Σₖ P(K=k)·P(survive | K=k)` over the evaluator's relevant cells,
    /// each stratum sampled with exactly `k` faults via
    /// [`TrialEvaluator::exact_fault_trial`], trials allocated by Neyman
    /// weights after a pilot pass, and negligible strata truncated below
    /// `config.tolerance`.
    ///
    /// At high survival (`p ≥ 0.999`) this reaches the same confidence
    /// interval as [`SchemeYield::estimate_survival`] with an order of
    /// magnitude fewer array evaluations, because the defect-free
    /// stratum — the overwhelming bulk of the probability mass — is
    /// resolved exactly without sampling. `budget` bounds the total
    /// trials spent; the estimate reports how many were actually used and
    /// the naive-equivalent effective count
    /// ([`StratifiedEstimate::effective_trials`]). Deterministic in
    /// `(budget, seed)` and independent of thread count.
    #[must_use]
    pub fn estimate_survival_stratified(
        &self,
        p: f64,
        budget: u32,
        seed: u64,
        config: &StratifiedConfig,
    ) -> StratifiedEstimate {
        assert!(
            (0.0..=1.0).contains(&p),
            "survival probability must be in [0, 1], got {p}"
        );
        let strat = StratifiedMonteCarlo::new(self.evaluator.cell_count(), budget, seed)
            .with_threads(self.threads)
            .with_config(*config)
            // Hall-type structural bound: strata at or below it are
            // provably tolerable and resolve exactly instead of being
            // sampled — the k = 1 stratum usually carries most of the
            // non-defect-free mass at p → 1.
            .with_proven_tolerable(self.evaluator.guaranteed_tolerable_faults());
        match self.block_width() {
            Some(width) => strat.estimate_block(
                1.0 - p,
                width,
                || self.evaluator.block_scratch(),
                |k, seeds, block| self.evaluator.exact_fault_block(k, seeds, block),
            ),
            None => strat.estimate(
                1.0 - p,
                || self.evaluator.scratch(),
                |k, rng, scratch| self.evaluator.exact_fault_trial(k, rng, scratch),
            ),
        }
    }

    /// Sweeps survival probabilities through the stratified estimator,
    /// one independent stratified experiment per grid point (seeded by
    /// the point index; `budget` trials each), parallelised over points
    /// like [`SchemeYield::sweep_survival`]. Per-point results are
    /// identical to a sequential sweep for any thread count.
    #[must_use]
    pub fn sweep_survival_stratified(
        &self,
        ps: &[f64],
        budget: u32,
        seed: u64,
        config: &StratifiedConfig,
    ) -> Vec<StratifiedPoint> {
        let (outer, inner) = sweep_thread_split(self.threads, ps.len());
        let point = self.clone().with_threads(inner);
        parallel_map(outer, ps, |i, &p| StratifiedPoint {
            x: p,
            estimate: point.estimate_survival_stratified(
                p,
                budget,
                seed.wrapping_add(i as u64),
                config,
            ),
        })
    }

    /// Estimates yield under an arbitrary defect sampler — the hook the
    /// clustered-defect model rides through every scheme: `sample` draws
    /// one chip instance's defect map per trial (all randomness from the
    /// provided RNG), and the evaluator decides tolerability. Results are
    /// deterministic in `(trials, seed)` and independent of thread count.
    ///
    /// Always runs the scalar engine: an arbitrary sampler's draw stream
    /// cannot be transposed into fault words without changing it, so
    /// [`SchemeYield::with_block_trials`] has no effect here.
    #[must_use]
    pub fn estimate_with_defects(
        &self,
        trials: u32,
        seed: u64,
        sample: impl Fn(&mut StdRng) -> DefectMap<C> + Sync,
    ) -> BernoulliEstimate {
        MonteCarlo::new(trials, seed).run_parallel_with(
            self.threads,
            || self.evaluator.scratch(),
            |rng, scratch| {
                let defects = sample(rng);
                self.evaluator.evaluate_defects(&defects, scratch)
            },
        )
    }

    /// Sweeps an **ascending** survival grid in one batched Monte-Carlo
    /// pass: each trial draws a single random chip (common random numbers
    /// across the grid) and reports tolerability at every `p` at once via
    /// the monotone threshold search in
    /// [`TrialEvaluator::survival_trial_grid`]. Results are byte-identical
    /// for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not sorted ascending.
    #[must_use]
    pub fn sweep_survival_batched(&self, ps: &[f64], trials: u32, seed: u64) -> Vec<YieldPoint> {
        let mc = MonteCarlo::new(trials, seed);
        let estimates = match self.block_width() {
            Some(width) => mc.tally_blocks_with(
                self.threads,
                width,
                ps.len(),
                || self.evaluator.block_scratch(),
                |seeds, block, counts| {
                    self.evaluator.survival_grid_block(ps, seeds, block, counts);
                },
            ),
            None => mc.tally_parallel(
                self.threads,
                ps.len(),
                || self.evaluator.scratch(),
                |rng, scratch, out| self.evaluator.survival_trial_grid(ps, rng, scratch, out),
            ),
        };
        ps.iter()
            .zip(estimates)
            .map(|(&p, est)| YieldPoint::from_estimate(p, &est))
            .collect()
    }

    /// Sweeps survival probabilities with an **independent** experiment
    /// per grid point (each point seeded by its index), parallelised over
    /// points with leftover workers running inside each point's trial
    /// loop. Per-point results are identical to a sequential sweep.
    #[must_use]
    pub fn sweep_survival(&self, ps: &[f64], trials: u32, seed: u64) -> Vec<YieldPoint> {
        let (outer, inner) = sweep_thread_split(self.threads, ps.len());
        let point = self.clone().with_threads(inner);
        parallel_map(outer, ps, |i, &p| {
            let est = point.estimate_survival(p, trials, seed.wrapping_add(i as u64));
            YieldPoint::from_estimate(p, &est)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_grid::SquareRegion;
    use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
    use dmfb_reconfig::SquarePattern;

    fn square(pattern: SquarePattern) -> SchemeYield<dmfb_grid::SquareCoord> {
        SchemeYield::from_scheme(&SquareRegion::rect(10, 10), &pattern)
    }

    fn spare_rows() -> SchemeYield<dmfb_grid::SquareCoord> {
        let array = SpareRowArray::new(
            8,
            vec![ModuleBand {
                name: "M".into(),
                rows: 6,
            }],
            2,
        );
        SchemeYield::from_scheme(&array.region(), &array)
    }

    #[test]
    fn extremes_for_every_scheme() {
        for est in [
            square(SquarePattern::PerfectCode),
            square(SquarePattern::Checkerboard),
            spare_rows(),
        ] {
            assert_eq!(est.estimate_survival(1.0, 200, 1).point(), 1.0);
            assert!(est.estimate_survival(0.0, 200, 1).point() < 1.0);
        }
        // Zero survival with the quarter pattern is always fatal (odd/odd
        // cells have no spare at all).
        assert_eq!(
            square(SquarePattern::Quarter)
                .estimate_survival(0.0, 200, 1)
                .point(),
            0.0
        );
    }

    #[test]
    fn redundancy_order_on_the_square_lattice() {
        // More spares per primary tolerate more faults: checkerboard
        // (s = 4) beats stripes (s = 2) beats perfect code (s = 1).
        let p = 0.93;
        let y1 = square(SquarePattern::PerfectCode)
            .estimate_survival(p, 3_000, 5)
            .point();
        let y2 = square(SquarePattern::Stripes)
            .estimate_survival(p, 3_000, 5)
            .point();
        let y4 = square(SquarePattern::Checkerboard)
            .estimate_survival(p, 3_000, 5)
            .point();
        assert!(y4 >= y2 - 0.02, "checkerboard {y4} vs stripes {y2}");
        assert!(y2 >= y1 - 0.02, "stripes {y2} vs perfect-code {y1}");
    }

    #[test]
    fn batched_sweep_is_monotone_and_thread_invariant() {
        let ps = [0.85, 0.92, 0.97, 1.0];
        for est in [square(SquarePattern::Stripes), spare_rows()] {
            let seq = est.sweep_survival_batched(&ps, 1_000, 47);
            for w in seq.windows(2) {
                assert!(w[1].y >= w[0].y, "batched curve must be monotone");
            }
            assert_eq!(seq.last().unwrap().y, 1.0, "p = 1 never fails");
            for threads in [0, 2, 5] {
                let par = est
                    .clone()
                    .with_threads(threads)
                    .sweep_survival_batched(&ps, 1_000, 47);
                assert_eq!(par, seq, "threads={threads}");
            }
        }
    }

    #[test]
    fn block_engine_is_byte_identical_to_scalar() {
        let ps = [0.85, 0.92, 0.97, 1.0];
        for est in [
            square(SquarePattern::PerfectCode),
            square(SquarePattern::Checkerboard),
            square(SquarePattern::Stripes),
            spare_rows(),
        ] {
            let scalar = est.clone().with_block_trials(Some(0));
            let survival = scalar.estimate_survival(0.95, 1_500, 11);
            let sweep = scalar.sweep_survival_batched(&ps, 800, 3);
            let strat =
                scalar.estimate_survival_stratified(0.995, 1_200, 7, &StratifiedConfig::default());
            // None = auto (the default engine) plus explicit widths that
            // split trials across partial and multiple 64-lane groups.
            for block_trials in [None, Some(1), Some(64), Some(333)] {
                let block = est.clone().with_block_trials(block_trials);
                assert_eq!(
                    block.estimate_survival(0.95, 1_500, 11),
                    survival,
                    "survival, block_trials={block_trials:?}"
                );
                assert_eq!(
                    block.sweep_survival_batched(&ps, 800, 3),
                    sweep,
                    "sweep, block_trials={block_trials:?}"
                );
                assert_eq!(
                    block.estimate_survival_stratified(
                        0.995,
                        1_200,
                        7,
                        &StratifiedConfig::default()
                    ),
                    strat,
                    "stratified, block_trials={block_trials:?}"
                );
            }
        }
    }

    #[test]
    fn per_point_sweep_matches_batched_statistically() {
        let est = square(SquarePattern::Checkerboard);
        let ps = [0.90, 0.96];
        let a = est.sweep_survival(&ps, 4_000, 9);
        let b = est.sweep_survival_batched(&ps, 4_000, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.x, y.x);
            assert!((x.y - y.y).abs() < 0.04, "{} vs {}", x.y, y.y);
        }
    }

    #[test]
    fn spare_row_yield_matches_closed_form() {
        // P(tolerable) = P(#faulty rows <= spares); rows fail
        // independently with probability 1 - p^width. With one band of r
        // rows and s spares this is a binomial tail — check against it.
        let width = 6u32;
        let rows = 5u32;
        let spares = 1u32;
        let array = SpareRowArray::new(
            width,
            vec![ModuleBand {
                name: "M".into(),
                rows,
            }],
            spares,
        );
        let est = SchemeYield::from_scheme(&array.region(), &array);
        let p: f64 = 0.97;
        let row_ok = p.powi(width as i32);
        let mut expected = 0.0;
        for k in 0..=spares {
            let comb = match k {
                0 => 1.0,
                1 => f64::from(rows),
                _ => unreachable!("spares = 1"),
            };
            expected += comb * (1.0 - row_ok).powi(k as i32) * row_ok.powi((rows - k) as i32);
        }
        let got = est.estimate_survival(p, 20_000, 3).point();
        assert!(
            (got - expected).abs() < 0.02,
            "mc {got} vs closed {expected}"
        );
    }

    #[test]
    fn assignment_exposes_the_matching_behind_the_verdict() {
        use dmfb_grid::SquareCoord;
        let est = spare_rows();
        // One faulty cell faults its whole module row; the assignment maps
        // that row onto one of the two indestructible spare rows.
        let pairs = est.assignment(&[SquareCoord::new(2, 1)]).unwrap();
        assert_eq!(pairs.len(), 1);
        let (unit, resource) = pairs[0];
        let row: Vec<SquareCoord> = est.evaluator().unit_coords(unit).collect();
        assert!(row.contains(&SquareCoord::new(2, 1)));
        assert_eq!(est.evaluator().resource_coords(resource).count(), 0);
        // Exceeding the spare rows: no assignment exists.
        assert!(est
            .assignment(&[
                SquareCoord::new(0, 0),
                SquareCoord::new(0, 1),
                SquareCoord::new(0, 2),
            ])
            .is_none());
        // Fault-free: an empty assignment, not a stale one.
        assert_eq!(est.assignment(&[]), Some(Vec::new()));
    }

    #[test]
    fn stratified_matches_spare_row_closed_form() {
        use crate::analytical;
        let est = spare_rows();
        let p: f64 = 0.995;
        let strat = est.estimate_survival_stratified(p, 6_000, 3, &StratifiedConfig::default());
        // The fixture: width 8, 6 module rows, 2 *indestructible* spare
        // rows — the exact yield is the binomial tail over module rows.
        let exact = analytical::at_most_k_failures(p.powi(8), 6, 2);
        assert!(
            (strat.point - exact).abs() < 4.0 * strat.std_error() + strat.truncated_mass + 2e-3,
            "stratified {} vs closed form {exact} (σ {})",
            strat.point,
            strat.std_error()
        );
        assert!(strat.trials <= 6_000 + strat.strata.len() as u64);
    }

    #[test]
    fn stratified_extremes_resolve_exactly() {
        let est = square(SquarePattern::Checkerboard);
        let perfect = est.estimate_survival_stratified(1.0, 100, 1, &StratifiedConfig::default());
        assert_eq!(perfect.point, 1.0);
        assert_eq!(perfect.variance, 0.0);
        assert_eq!(perfect.trials, 1, "p = 1 is one deterministic stratum");
        let dead = est.estimate_survival_stratified(0.0, 100, 1, &StratifiedConfig::default());
        assert_eq!(dead.point, 0.0);
        assert_eq!(dead.trials, 1);
    }

    #[test]
    fn stratified_is_thread_invariant() {
        let est = square(SquarePattern::Stripes);
        let config = StratifiedConfig::default();
        let seq = est.estimate_survival_stratified(0.97, 2_000, 13, &config);
        for threads in [0, 2, 5] {
            let par = est
                .clone()
                .with_threads(threads)
                .estimate_survival_stratified(0.97, 2_000, 13, &config);
            assert_eq!(par, seq, "threads={threads}");
        }
        let sweep_seq = est.sweep_survival_stratified(&[0.95, 0.99], 800, 7, &config);
        for threads in [0, 3] {
            let par = est.clone().with_threads(threads).sweep_survival_stratified(
                &[0.95, 0.99],
                800,
                7,
                &config,
            );
            assert_eq!(par, sweep_seq, "threads={threads}");
        }
    }

    #[test]
    fn stratified_beats_naive_effective_trials_in_the_rare_regime() {
        // At p = 0.999 almost every naive trial lands on a defect-free
        // chip; the stratified estimator must turn its budget into an
        // order of magnitude more effective samples.
        let est = square(SquarePattern::Checkerboard);
        let strat = est.estimate_survival_stratified(0.999, 2_000, 5, &StratifiedConfig::default());
        assert!(
            strat.effective_trials() >= 10.0 * strat.trials as f64,
            "effective {} vs spent {}",
            strat.effective_trials(),
            strat.trials
        );
        let pt = StratifiedPoint {
            x: 0.999,
            estimate: strat.clone(),
        }
        .to_yield_point();
        assert_eq!(pt.y, strat.point);
        assert_eq!(pt.trials, strat.trials);
    }

    #[test]
    fn defect_sampler_hook_matches_bernoulli_engine() {
        use dmfb_defects::injection::Bernoulli;
        use dmfb_grid::SquareRegion;
        let region = SquareRegion::rect(10, 10);
        let est = SchemeYield::from_scheme(&region, &SquarePattern::Checkerboard);
        let model = Bernoulli::from_survival(0.93);
        let via_sampler = est.estimate_with_defects(4_000, 9, |rng| model.inject_in(&region, rng));
        let direct = est.estimate_survival(0.93, 4_000, 9);
        assert!(
            (via_sampler.point() - direct.point()).abs() < 0.04,
            "{} vs {}",
            via_sampler.point(),
            direct.point()
        );
        // Thread invariance of the sampler path.
        let par = est
            .clone()
            .with_threads(4)
            .estimate_with_defects(4_000, 9, |rng| model.inject_in(&region, rng));
        assert_eq!(par, via_sampler);
    }

    #[test]
    fn label_flows_through() {
        assert!(square(SquarePattern::Stripes).label().contains("stripes"));
        assert!(spare_rows().label().contains("spare-rows"));
    }
}
