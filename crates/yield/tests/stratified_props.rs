//! Property-based tests for the defect-count-stratified rare-event
//! estimator: equivalence with the naive Monte-Carlo estimator within
//! confidence bounds, truncation-error control, and determinism.

use dmfb_grid::SquareRegion;
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::{ReconfigPolicy, SquarePattern};
use dmfb_sim::stratified::plan_strata;
use dmfb_sim::StratifiedConfig;
use dmfb_yield::{analytical, SchemeYield};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = SquarePattern> {
    prop::sample::select(vec![
        SquarePattern::PerfectCode,
        SquarePattern::Stripes,
        SquarePattern::Checkerboard,
    ])
}

proptest! {
    /// The strata planner always captures at least `1 − tolerance` of the
    /// binomial mass (given room), reports the residue exactly, and keeps
    /// a contiguous ascending defect-count window.
    #[test]
    fn planner_truncation_error_is_within_tolerance(
        n in 1usize..600,
        q in 0.0f64..=1.0,
        tol_exp in 1u32..9,
    ) {
        let tolerance = 10f64.powi(-(tol_exp as i32));
        let config = StratifiedConfig {
            tolerance,
            // Ample room: the planner must stop on tolerance, not the cap.
            max_strata: n + 1,
            ..StratifiedConfig::default()
        };
        let (plans, truncated) = plan_strata(n, q, &config);
        let mass: f64 = plans.iter().map(|s| s.weight).sum();
        prop_assert!(truncated <= tolerance + 1e-12, "truncated {truncated} > {tolerance}");
        prop_assert!((1.0 - mass - truncated).abs() < 1e-9);
        prop_assert!(plans.windows(2).all(|w| w[1].faults == w[0].faults + 1));
        prop_assert!(plans.iter().all(|s| s.faults <= n && s.weight >= 0.0));
    }
}

// Monte-Carlo-backed properties are expensive per case; a dozen cases is
// still a meaningful search while keeping the suite fast.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stratified ≡ naive on small square arrays: the two estimators
    /// target the same quantity, so their difference must sit inside the
    /// combined confidence bounds (plus the declared truncation budget).
    #[test]
    fn stratified_matches_naive_within_ci_bounds(
        pattern in arb_pattern(),
        side in 6u32..12,
        p in 0.85f64..0.999,
        seed in 0u64..50,
    ) {
        let est = SchemeYield::from_scheme(&SquareRegion::rect(side, side), &pattern);
        let naive = est.estimate_survival(p, 4_000, seed);
        let strat =
            est.estimate_survival_stratified(p, 4_000, seed ^ 0xA5A5, &StratifiedConfig::default());
        let slack = 4.0 * (strat.std_error() + naive.margin95() / 1.96)
            + strat.truncated_mass
            + 5e-3;
        prop_assert!(
            (naive.point() - strat.point).abs() < slack,
            "{pattern} side={side} p={p}: naive {} vs stratified {} (slack {slack})",
            naive.point(),
            strat.point
        );
        prop_assert!(strat.trials <= 4_000 + strat.strata.len() as u64);
        prop_assert!((0.0..=1.0).contains(&strat.point));
        prop_assert!(strat.variance >= 0.0);
    }

    /// The stratified point estimate underestimates the truth by at most
    /// the truncated mass: against the exact spare-row closed form, the
    /// signed error must respect `-(CI) <= exact - point <= CI + truncated`.
    #[test]
    fn truncation_bias_is_one_sided_and_bounded(
        p in 0.9f64..=0.999,
        tol_exp in 3u32..8,
        seed in 0u64..30,
    ) {
        use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
        let (width, rows, spares) = (6u32, 5u32, 1u32);
        let array = SpareRowArray::new(
            width,
            vec![ModuleBand { name: "M".into(), rows }],
            spares,
        );
        let est = SchemeYield::from_scheme(&array.region(), &array);
        let tolerance = 10f64.powi(-(tol_exp as i32));
        let config = StratifiedConfig { tolerance, ..StratifiedConfig::default() };
        let strat = est.estimate_survival_stratified(p, 5_000, seed, &config);
        // The generic spare-row scheme models spare rows as
        // indestructible, so the exact yield is the binomial tail over
        // the module rows alone (row survival p^width).
        let exact =
            analytical::at_most_k_failures(p.powi(width as i32), rows as usize, spares as usize);
        let noise = 5.0 * strat.std_error() + 5e-3;
        // Sampling noise swings both ways; truncation only downward.
        prop_assert!(
            exact - strat.point <= strat.truncated_mass + noise,
            "point {} exact {exact} truncated {}",
            strat.point,
            strat.truncated_mass
        );
        prop_assert!(
            strat.point - exact <= noise,
            "stratified may not overshoot: point {} exact {exact}",
            strat.point
        );
        prop_assert!(strat.truncated_mass <= tolerance + 1e-12);
    }

    /// Determinism and thread invariance: the estimate is a pure function
    /// of `(budget, seed)` on every engine front-end.
    #[test]
    fn stratified_is_deterministic_and_thread_invariant(
        kind in prop::sample::select(DtmbKind::ALL.to_vec()),
        seed in 0u64..40,
    ) {
        let mc = SchemeYield::new(kind.with_primary_count(40), ReconfigPolicy::AllPrimaries);
        let config = StratifiedConfig::default();
        let a = mc.estimate_survival_stratified(0.995, 1_000, seed, &config);
        let b = mc.estimate_survival_stratified(0.995, 1_000, seed, &config);
        prop_assert_eq!(&a, &b);
        for threads in [0usize, 3] {
            let par = mc
                .clone()
                .with_threads(threads)
                .estimate_survival_stratified(0.995, 1_000, seed, &config);
            prop_assert_eq!(&par, &a, "threads={}", threads);
        }
    }

    /// In the rare-event regime the stratified estimator's effective
    /// sample count beats its actual trial spend by at least an order of
    /// magnitude (the deterministic defect-free stratum carries the mass).
    #[test]
    fn rare_event_speedup_is_at_least_10x(seed in 0u64..20) {
        let mc = SchemeYield::new(
            DtmbKind::Dtmb26A.with_primary_count(60),
            ReconfigPolicy::AllPrimaries,
        );
        let strat =
            mc.estimate_survival_stratified(0.999, 1_000, seed, &StratifiedConfig::default());
        prop_assert!(
            strat.effective_trials() >= 10.0 * strat.trials as f64,
            "effective {} vs spent {}",
            strat.effective_trials(),
            strat.trials
        );
    }
}
