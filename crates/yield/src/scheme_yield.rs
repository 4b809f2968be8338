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

use dmfb_grid::{HexCoord, Topology};
use dmfb_reconfig::{DefectTolerantArray, ReconfigPolicy, RedundancyScheme, TrialEvaluator};
use dmfb_sim::{
    parallel_map, BernoulliEstimate, MonteCarlo, StratifiedConfig, StratifiedEstimate,
    StratifiedMonteCarlo,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

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

/// Block width (trials per [`MonteCarlo::run_blocks_with`] seed group) of
/// every Bernoulli estimate — a few word groups per block keeps the
/// per-block seed-derivation overhead negligible without starving the
/// thread scheduler of blocks. Estimates do not depend on it.
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
    /// Trials per block: [`DEFAULT_BLOCK_TRIALS`] outside the
    /// width-invariance unit tests.
    width: usize,
}

impl SchemeYield {
    /// Compiles a hexagonal DTMB `array` under `policy`: units are the
    /// in-scope primaries, resources the spares bordering them (see
    /// [`TrialEvaluator::new`]). Takes the pair by value or by reference;
    /// neither is kept. Defaults to single-threaded execution.
    #[must_use]
    pub fn new(
        array: impl Borrow<DefectTolerantArray>,
        policy: impl Borrow<ReconfigPolicy>,
    ) -> Self {
        let array = array.borrow();
        let label = array
            .kind()
            .map_or("no-redundancy".to_string(), |k| k.to_string());
        SchemeYield::from_evaluator(label, TrialEvaluator::new(array, policy.borrow()))
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
            width: DEFAULT_BLOCK_TRIALS,
        }
    }

    /// Wraps an already-built evaluator.
    #[must_use]
    pub fn from_evaluator(label: impl Into<String>, evaluator: TrialEvaluator<C>) -> Self {
        SchemeYield {
            label: label.into(),
            evaluator,
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

    /// Runs blocks of `width` trials; estimates must not change.
    #[cfg(test)]
    fn with_width(mut self, width: usize) -> Self {
        self.width = width;
        self
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

    /// Estimates yield when every relevant cell survives independently
    /// with probability `p`. Trials run 64 per word through the tiered
    /// sample → classify → match pipeline of [`dmfb_reconfig::block`],
    /// whose verdicts equal [`TrialEvaluator::survival_trial`]'s trial by
    /// trial; the estimate is the same for any thread count.
    #[must_use]
    pub fn estimate_survival(&self, p: f64, trials: u32, seed: u64) -> BernoulliEstimate {
        MonteCarlo::new(trials, seed).run_blocks_with(
            self.threads,
            self.width,
            || self.evaluator.block_scratch(),
            |seeds, block| self.evaluator.survival_block(p, seeds, block),
        )
    }

    /// Estimates yield with the **defect-count-stratified** rare-event
    /// estimator: the survival probability is decomposed as
    /// `Σₖ P(K=k)·P(survive | K=k)` over the evaluator's relevant cells,
    /// each stratum sampled with exactly `k` faults (the block form of
    /// [`TrialEvaluator::exact_fault_trial`]), trials allocated by Neyman
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
        StratifiedMonteCarlo::new(self.evaluator.cell_count(), budget, seed)
            .with_threads(self.threads)
            .with_config(*config)
            // Hall-type structural bound: strata at or below it are
            // provably tolerable and resolve exactly instead of being
            // sampled — the k = 1 stratum usually carries most of the
            // non-defect-free mass at p → 1.
            .with_proven_tolerable(self.evaluator.guaranteed_tolerable_faults())
            .estimate_block(
                1.0 - p,
                self.width,
                1,
                || self.evaluator.block_scratch(),
                |k, seeds, block, counts| {
                    counts[0] += u64::from(self.evaluator.exact_fault_block(k, seeds, block));
                },
            )
            .pop()
            .expect("one outcome in, one estimate out")
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

    /// Estimates yield under an arbitrary per-trial fault sampler — the
    /// hook the clustered-defect model rides through every scheme. Each
    /// trial's `sample` call gets that trial's RNG and the worker's state
    /// from `init`, and pushes the trial's faulty cell ids (indices into
    /// [`TrialEvaluator::cells`]; see [`TrialEvaluator::fault_ids`]). The
    /// trials run in blocks through [`TrialEvaluator::sampled_block`], so
    /// the classifier tiers decide most of them without a matcher call.
    /// Results are deterministic in `(trials, seed)` and independent of
    /// thread count and block width.
    #[must_use]
    pub fn estimate_sampled<S>(
        &self,
        trials: u32,
        seed: u64,
        init: impl Fn() -> S + Sync,
        sample: impl Fn(&mut StdRng, &mut S, &mut Vec<u32>) + Sync,
    ) -> BernoulliEstimate {
        MonteCarlo::new(trials, seed).run_blocks_with(
            self.threads,
            self.width,
            || (self.evaluator.block_scratch(), init()),
            |seeds, (block, state)| {
                self.evaluator
                    .sampled_block(seeds, block, |rng, faults| sample(rng, state, faults))
            },
        )
    }

    /// Sweeps an **ascending** survival grid in one batched Monte-Carlo
    /// pass: each trial draws a single random chip (common random numbers
    /// across the grid) and reports tolerability at every `p` at once —
    /// the block form of [`TrialEvaluator::survival_trial_grid`]. Results
    /// are byte-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not sorted ascending.
    #[must_use]
    pub fn sweep_survival_batched(
        &self,
        ps: &[f64],
        trials: u32,
        seed: u64,
    ) -> Vec<BernoulliEstimate> {
        MonteCarlo::new(trials, seed).tally_blocks_with(
            self.threads,
            self.width,
            ps.len(),
            || self.evaluator.block_scratch(),
            |seeds, block, counts| self.evaluator.survival_grid_block(ps, seeds, block, counts),
        )
    }

    /// Sweeps survival probabilities with an **independent** experiment
    /// per grid point (each point seeded by its index), parallelised over
    /// points with leftover workers running inside each point's trial
    /// loop. Per-point results are identical to a sequential sweep.
    #[must_use]
    pub fn sweep_survival(&self, ps: &[f64], trials: u32, seed: u64) -> Vec<BernoulliEstimate> {
        let (outer, inner) = sweep_thread_split(self.threads, ps.len());
        let point = self.clone().with_threads(inner);
        parallel_map(outer, ps, |i, &p| {
            point.estimate_survival(p, trials, seed.wrapping_add(i as u64))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_grid::SquareRegion;
    use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
    use dmfb_reconfig::SquarePattern;
    use rand::SeedableRng;

    fn square(pattern: SquarePattern) -> SchemeYield<dmfb_grid::SquareCoord> {
        SchemeYield::from_scheme(&SquareRegion::rect(10, 10), &pattern)
    }

    fn spare_row_array() -> SpareRowArray {
        SpareRowArray::new(
            8,
            vec![ModuleBand {
                name: "M".into(),
                rows: 6,
            }],
            2,
        )
    }

    fn spare_rows() -> SchemeYield<dmfb_grid::SquareCoord> {
        let array = spare_row_array();
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
                assert!(
                    w[1].point() >= w[0].point(),
                    "batched curve must be monotone"
                );
            }
            assert_eq!(seq.last().unwrap().point(), 1.0, "p = 1 never fails");
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
        let config = StratifiedConfig::default();
        for est in [
            square(SquarePattern::PerfectCode),
            square(SquarePattern::Checkerboard),
            square(SquarePattern::Stripes),
            spare_rows(),
        ] {
            // The scalar oracle: one trial at a time through the
            // evaluator's per-trial entry points.
            let ev = est.evaluator();
            let survival = MonteCarlo::new(1_500, 11).run_parallel_with(
                1,
                || ev.scratch(),
                |rng, scratch| ev.survival_trial(0.95, rng, scratch),
            );
            let sweep = MonteCarlo::new(800, 3).tally_blocks_with(
                1,
                1,
                ps.len(),
                || (ev.scratch(), vec![false; ps.len()]),
                |seeds, (scratch, out), counts| {
                    let rng = &mut StdRng::seed_from_u64(seeds[0]);
                    ev.survival_trial_grid(&ps, rng, scratch, out);
                    for (c, &o) in counts.iter_mut().zip(out.iter()) {
                        *c += u64::from(o);
                    }
                },
            );
            let strat = StratifiedMonteCarlo::new(ev.cell_count(), 1_200, 7)
                .with_config(config)
                .with_proven_tolerable(ev.guaranteed_tolerable_faults())
                .estimate(
                    1.0 - 0.995,
                    || ev.scratch(),
                    |k, rng, scratch| ev.exact_fault_trial(k, rng, scratch),
                );
            // The production width, then widths that split trials across
            // partial and multiple 64-lane groups.
            for width in [DEFAULT_BLOCK_TRIALS, 1, 17, 64, 333] {
                let block = est.clone().with_width(width);
                assert_eq!(
                    block.estimate_survival(0.95, 1_500, 11),
                    survival,
                    "survival, width={width}"
                );
                assert_eq!(
                    block.sweep_survival_batched(&ps, 800, 3),
                    sweep,
                    "sweep, width={width}"
                );
                assert_eq!(
                    block.estimate_survival_stratified(0.995, 1_200, 7, &config),
                    strat,
                    "stratified, width={width}"
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
            assert!((x.point() - y.point()).abs() < 0.04, "{x} vs {y}");
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
    }

    #[test]
    fn defect_sampler_hook_matches_bernoulli_engine() {
        use dmfb_defects::injection::Bernoulli;
        use dmfb_grid::SquareRegion;
        let region = SquareRegion::rect(10, 10);
        let est = SchemeYield::from_scheme(&region, &SquarePattern::Checkerboard);
        let model = Bernoulli::from_survival(0.93);
        let ev = est.evaluator();
        let sample = |rng: &mut StdRng, _: &mut (), faults: &mut Vec<u32>| {
            faults.extend(ev.fault_ids(&model.inject_in(&region, rng)));
        };
        let via_sampler = est.estimate_sampled(4_000, 9, || (), sample);
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
            .estimate_sampled(4_000, 9, || (), sample);
        assert_eq!(par, via_sampler);
    }

    #[test]
    fn sampled_engine_matches_the_per_trial_defect_map_verdicts() {
        use dmfb_defects::ClusteredDefects;
        use dmfb_grid::SquareRegion;
        let region = SquareRegion::rect(10, 10);
        let model = ClusteredDefects::new(1.5, 2, 1, 0.7);
        for (est, topo) in [
            (square(SquarePattern::PerfectCode), region.clone()),
            (square(SquarePattern::Stripes), region),
            (spare_rows(), spare_row_array().region()),
        ] {
            let ev = est.evaluator();
            // The scalar oracle: a defect map per trial, decided by the
            // per-trial matcher.
            let oracle = MonteCarlo::new(700, 21).run_parallel_with(
                1,
                || ev.scratch(),
                |rng, scratch| ev.evaluate_defects(&model.inject_in(&topo, rng), scratch),
            );
            for width in [DEFAULT_BLOCK_TRIALS, 1, 17, 64, 333] {
                let got = est.clone().with_width(width).estimate_sampled(
                    700,
                    21,
                    || (),
                    |rng, _, faults| faults.extend(ev.fault_ids(&model.inject_in(&topo, rng))),
                );
                assert_eq!(got, oracle, "{} width={width}", est.label());
            }
        }
    }

    #[test]
    fn label_flows_through() {
        assert!(square(SquarePattern::Stripes).label().contains("stripes"));
        assert!(spare_rows().label().contains("spare-rows"));
    }
}
