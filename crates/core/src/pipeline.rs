//! The end-to-end pipeline: design → inject → reconfigure → report.

use dmfb_defects::injection::{ExactCount, InjectionModel};
use dmfb_grid::Region;
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::{DefectTolerantArray, ReconfigPolicy};
use dmfb_sim::BernoulliEstimate;
use dmfb_yield::{analytical, effective, SchemeYield};

/// A biochip under yield analysis: a defect-tolerant array plus the policy
/// deciding which primary cells must work.
///
/// # Example
///
/// ```
/// use dmfb_core::{Biochip, DtmbKind};
///
/// let chip = Biochip::dtmb(DtmbKind::Dtmb36, 120);
/// let report = chip.yield_report(0.95, 1_000, 7);
/// assert!(report.reconfigured_yield.point() >= report.raw_yield);
/// assert!(report.effective_yield <= report.reconfigured_yield.point());
/// ```
#[derive(Clone, Debug)]
pub struct Biochip {
    array: DefectTolerantArray,
    policy: ReconfigPolicy,
    threads: usize,
}

impl Biochip {
    /// A biochip using the given DTMB design with exactly `primaries`
    /// primary cells (spares added per the pattern).
    ///
    /// # Panics
    ///
    /// Panics if `primaries == 0`.
    #[must_use]
    pub fn dtmb(kind: DtmbKind, primaries: usize) -> Self {
        Biochip {
            array: kind.with_primary_count(primaries),
            policy: ReconfigPolicy::AllPrimaries,
            threads: 1,
        }
    }

    /// A biochip without redundancy on a roughly square region with
    /// `primaries` cells — the paper's baseline.
    ///
    /// # Panics
    ///
    /// Panics if `primaries == 0`.
    #[must_use]
    pub fn without_redundancy(primaries: usize) -> Self {
        assert!(primaries > 0, "need at least one cell");
        let side = (primaries as f64).sqrt().ceil() as u32;
        let mut region = Region::parallelogram(side, side);
        // Trim surplus cells from the high end.
        let cells: Vec<_> = region.iter().collect();
        for c in cells.into_iter().rev().take(region.len() - primaries) {
            region.remove(c);
        }
        Biochip {
            array: DefectTolerantArray::without_redundancy(region),
            policy: ReconfigPolicy::AllPrimaries,
            threads: 1,
        }
    }

    /// Wraps an existing array (e.g. the Figure 12 case-study chip).
    #[must_use]
    pub fn from_array(array: DefectTolerantArray) -> Self {
        Biochip {
            array,
            policy: ReconfigPolicy::AllPrimaries,
            threads: 1,
        }
    }

    /// Replaces the success policy (e.g. used-cells-only for the case
    /// study).
    #[must_use]
    pub fn with_policy(mut self, policy: ReconfigPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs Monte-Carlo trials across `threads` worker threads (results
    /// are identical for any thread count; `0` = one worker per available
    /// core, per [`dmfb_sim::auto_threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The underlying array.
    #[must_use]
    pub fn array(&self) -> &DefectTolerantArray {
        &self.array
    }

    /// The success policy.
    #[must_use]
    pub fn policy(&self) -> &ReconfigPolicy {
        &self.policy
    }

    /// The chip's yield engine: the compiled [`SchemeYield`] for this
    /// array and policy, on the chip's thread count.
    #[must_use]
    pub fn engine(&self) -> SchemeYield {
        SchemeYield::new(&self.array, &self.policy).with_threads(self.threads)
    }

    /// Estimates yield at survival probability `p` with and without local
    /// reconfiguration, plus the effective-yield and analytical references.
    #[must_use]
    pub fn yield_report(&self, p: f64, trials: u32, seed: u64) -> YieldReport {
        let engine = self.engine();
        self.yield_report_from(&engine, p, engine.estimate_survival(p, trials, seed))
    }

    /// [`Biochip::yield_report`] around the `reconfigured` estimate that
    /// `engine`, built from this chip by [`Biochip::engine`], gave at
    /// survival `p` — so the caller picks how it is run. Raw yield is the
    /// closed form `pⁿ` over the `n` in-scope primaries: under i.i.d.
    /// faults the chip survives without reconfiguration iff every one of
    /// them does.
    #[must_use]
    pub fn yield_report_from(
        &self,
        engine: &SchemeYield,
        p: f64,
        reconfigured: BernoulliEstimate,
    ) -> YieldReport {
        let raw_yield = analytical::no_redundancy_yield(p, engine.evaluator().unit_count());
        let analytical = match self.array.kind() {
            Some(DtmbKind::Dtmb16) => Some(analytical::dtmb16_yield(p, self.array.primary_count())),
            None => Some(analytical::no_redundancy_yield(
                p,
                self.array.primary_count(),
            )),
            _ => None,
        };

        YieldReport {
            survival_p: p,
            raw_yield,
            reconfigured_yield: reconfigured,
            effective_yield: effective::effective_yield_of(&self.array, reconfigured.point()),
            redundancy_ratio: self.array.redundancy_ratio(),
            analytical,
        }
    }

    /// Estimates yield with exactly `m` random cell failures per chip — the
    /// Figure 13 protocol. The faults land anywhere on the array, so under
    /// a used-cells policy a fault on an unused cell is harmless.
    #[must_use]
    pub fn exact_fault_yield(&self, m: usize, trials: u32, seed: u64) -> BernoulliEstimate {
        let model = ExactCount::new(m);
        let region = self.array.region();
        let engine = self.engine();
        let ev = engine.evaluator();
        engine.estimate_sampled(
            trials,
            seed,
            || (),
            |rng, _, faults| {
                faults.extend(ev.fault_ids(&model.inject(region, rng)));
            },
        )
    }
}

/// Yield metrics for one design point.
#[derive(Clone, Debug)]
pub struct YieldReport {
    /// The survival probability evaluated.
    pub survival_p: f64,
    /// Yield without reconfiguration: the closed form `pⁿ` over the `n`
    /// in-scope primaries, all of which must survive.
    pub raw_yield: f64,
    /// Yield with local reconfiguration.
    pub reconfigured_yield: BernoulliEstimate,
    /// Effective yield `EY = Y · n / N` of the reconfigured estimate.
    pub effective_yield: f64,
    /// The array's redundancy ratio.
    pub redundancy_ratio: f64,
    /// Closed-form reference where one exists (no-redundancy and
    /// DTMB(1,6)).
    pub analytical: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn report_orders_yields_correctly() {
        let chip = Biochip::dtmb(DtmbKind::Dtmb26A, 80);
        let r = chip.yield_report(0.95, 1_500, 3);
        assert!(r.reconfigured_yield.point() > r.raw_yield);
        assert!(r.effective_yield <= r.reconfigured_yield.point());
        assert!((r.redundancy_ratio - 1.0 / 3.0).abs() < 0.15);
        assert!(r.analytical.is_none());
        assert_eq!(r.survival_p, 0.95);
    }

    #[test]
    fn no_redundancy_matches_analytic() {
        let chip = Biochip::without_redundancy(108);
        assert_eq!(chip.array().primary_count(), 108);
        let r = chip.yield_report(0.99, 4_000, 9);
        let analytic = r.analytical.unwrap();
        assert!((analytic - 0.3375).abs() < 1e-3);
        assert!((r.reconfigured_yield.point() - analytic).abs() < 0.03);
        // Raw == reconfigured when there are no spares.
        assert!((r.raw_yield - r.reconfigured_yield.point()).abs() < 0.03);
    }

    #[test]
    fn dtmb16_reports_cluster_model() {
        let chip = Biochip::dtmb(DtmbKind::Dtmb16, 60);
        let r = chip.yield_report(0.97, 1_500, 5);
        let analytic = r.analytical.unwrap();
        assert!((r.reconfigured_yield.point() - analytic).abs() < 0.06);
    }

    #[test]
    fn exact_fault_mode() {
        let chip = Biochip::dtmb(DtmbKind::Dtmb26A, 100);
        let zero = chip.exact_fault_yield(0, 200, 1);
        assert_eq!(zero.point(), 1.0);
        let some = chip.exact_fault_yield(10, 800, 1);
        assert!(some.point() < 1.0);
    }

    #[test]
    fn threads_do_not_change_results() {
        let a = Biochip::dtmb(DtmbKind::Dtmb44, 60).yield_report(0.93, 1_000, 11);
        let b = Biochip::dtmb(DtmbKind::Dtmb44, 60)
            .with_threads(4)
            .yield_report(0.93, 1_000, 11);
        assert_eq!(
            a.reconfigured_yield.successes(),
            b.reconfigured_yield.successes()
        );
    }

    #[test]
    fn report_matches_the_engine_at_any_thread_count() {
        let chip = Biochip::dtmb(DtmbKind::Dtmb26A, 80);
        let direct = dmfb_yield::MonteCarloYield::new(chip.array().clone(), chip.policy().clone())
            .estimate_survival(0.95, 1_500, 3);
        for threads in [1, 4] {
            let report = chip
                .clone()
                .with_threads(threads)
                .yield_report(0.95, 1_500, 3);
            assert_eq!(report.reconfigured_yield, direct, "threads={threads}");
        }
    }

    #[test]
    fn raw_yield_is_the_closed_form_over_in_scope_primaries() {
        // Release builds fold a literal `0.97f64.powi(80)` at compile time,
        // which rounds differently from the runtime `powi`; compare with
        // the runtime call, kept unfolded by `black_box`.
        use std::hint::black_box;
        let all = Biochip::dtmb(DtmbKind::Dtmb26A, 80);
        assert_eq!(
            all.yield_report(0.97, 10, 1).raw_yield,
            analytical::no_redundancy_yield(0.97, black_box(80))
        );
        let ivd = dmfb_bioassay::layout::ivd_dtmb26_chip();
        let used = Biochip::from_array(ivd.array.clone())
            .with_policy(dmfb_bioassay::layout::used_cells_policy(&ivd));
        assert_eq!(
            used.yield_report(0.99, 10, 1).raw_yield,
            analytical::no_redundancy_yield(0.99, black_box(ivd.assay_cells.len()))
        );
    }

    #[test]
    fn exact_fault_yield_matches_the_rebuild_oracle_per_map() {
        use dmfb_oracle::local::is_reconfigurable;
        use dmfb_sim::SeedSequence;
        let ivd = dmfb_bioassay::layout::ivd_dtmb26_chip();
        let used = Biochip::from_array(ivd.array.clone())
            .with_policy(dmfb_bioassay::layout::used_cells_policy(&ivd));
        for chip in [Biochip::dtmb(DtmbKind::Dtmb26A, 100), used] {
            let engine = chip.engine();
            let mut scratch = engine.evaluator().scratch();
            for m in [0usize, 5, 20] {
                let model = ExactCount::new(m);
                let mut oracle = 0u64;
                for i in 0..200u64 {
                    let mut rng = StdRng::seed_from_u64(SeedSequence::nth_seed(7, i));
                    let defects = model.inject(chip.array().region(), &mut rng);
                    let verdict = is_reconfigurable(chip.array(), &defects, chip.policy());
                    let fast = engine.evaluator().evaluate_defects(&defects, &mut scratch);
                    assert_eq!(fast, verdict, "m={m} map {i}");
                    oracle += u64::from(verdict);
                }
                assert_eq!(
                    chip.exact_fault_yield(m, 200, 7).successes(),
                    oracle,
                    "m={m}"
                );
            }
        }
    }

    #[test]
    fn policy_accessor() {
        let chip = Biochip::dtmb(DtmbKind::Dtmb16, 30)
            .with_policy(ReconfigPolicy::UsedCells(Default::default()));
        assert!(matches!(chip.policy(), ReconfigPolicy::UsedCells(_)));
    }
}
