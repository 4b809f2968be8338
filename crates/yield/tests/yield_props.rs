//! Property-based tests for the yield models.

use dmfb_defects::injection::{ExactCount, InjectionModel};
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::ReconfigPolicy;
use dmfb_yield::{analytical, effective_yield, tolerance_profile, SchemeYield};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = DtmbKind> {
    prop::sample::select(DtmbKind::ALL.to_vec())
}

proptest! {
    /// The analytical models are monotone in p and properly bounded.
    #[test]
    fn analytical_models_bounded_and_monotone(p in 0.0f64..1.0, n in 1usize..300) {
        let y0 = analytical::no_redundancy_yield(p, n);
        let y1 = analytical::dtmb16_yield(p, n);
        prop_assert!((0.0..=1.0).contains(&y0));
        prop_assert!((0.0..=1.0).contains(&y1));
        prop_assert!(y1 >= y0 - 1e-12, "redundancy can only help");
        let p2 = (p + 0.01).min(1.0);
        prop_assert!(analytical::dtmb16_yield(p2, n) >= y1 - 1e-12);
        prop_assert!(analytical::no_redundancy_yield(p2, n) >= y0 - 1e-12);
    }

    /// The cluster yield equals the explicit binomial expression.
    #[test]
    fn cluster_yield_matches_binomial(p in 0.0f64..=1.0) {
        let direct = analytical::dtmb16_cluster_yield(p);
        let via_cdf = analytical::at_most_k_failures(p, 7, 1);
        prop_assert!((direct - via_cdf).abs() < 1e-12);
    }

    /// Effective yield never exceeds raw yield and scales linearly.
    #[test]
    fn effective_yield_contracts(y in 0.0f64..=1.0, rr in 0.0f64..3.0) {
        let ey = effective_yield(y, rr);
        prop_assert!(ey <= y + 1e-15);
        prop_assert!(ey >= 0.0);
        prop_assert!((effective_yield(y / 2.0, rr) - ey / 2.0).abs() < 1e-12);
    }

}

// Monte-Carlo-backed properties are orders of magnitude more expensive per
// case than the closed-form ones; a dozen cases is still a meaningful
// search while keeping the suite fast.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Monte-Carlo estimates are bounded, reproducible, and respect the
    /// spare-count upper bound.
    #[test]
    fn mc_estimates_well_behaved(kind in arb_kind(), seed in 0u64..100) {
        let n = 40;
        let p = 0.92;
        let array = kind.with_primary_count(n);
        let est = SchemeYield::new(array.clone(), ReconfigPolicy::AllPrimaries);
        let a = est.estimate_survival(p, 400, seed);
        let b = est.estimate_survival(p, 400, seed);
        prop_assert_eq!(a, b);
        prop_assert!((0.0..=1.0).contains(&a.point()));
        let bound = analytical::spare_count_upper_bound(
            p,
            array.primary_count(),
            array.spare_count(),
        );
        prop_assert!(a.point() <= bound + 0.05, "{kind}: {} vs bound {bound}", a.point());
    }

    /// Tolerance profiles: survival is non-increasing and agrees with the
    /// direct exact-fault estimator at m = 1.
    #[test]
    fn profile_survival_consistent(kind in arb_kind(), seed in 0u64..50) {
        let array = kind.with_primary_count(36);
        let policy = ReconfigPolicy::AllPrimaries;
        let profile = tolerance_profile(&array, &policy, 400, seed);
        for m in 0..10 {
            prop_assert!(profile.survival(m) + 1e-12 >= profile.survival(m + 1));
        }
        let model = ExactCount::new(1);
        let est = SchemeYield::new(array.clone(), policy);
        let ev = est.evaluator();
        let direct = est
            .estimate_sampled(400, seed ^ 0xF00D, || (), |rng, _, faults| {
                faults.extend(ev.fault_ids(&model.inject(array.region(), rng)));
            })
            .point();
        prop_assert!((profile.survival(1) - direct).abs() < 0.12);
    }
}
