//! Property-based tests for the square-lattice interstitial patterns,
//! with verdicts from the adjacency-list reference oracle.

use dmfb_grid::{SquareCoord, SquareRegion};
use dmfb_oracle::square_dtmb;
use dmfb_reconfig::square_dtmb::SquarePattern;
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = SquarePattern> {
    prop::sample::select(SquarePattern::ALL.to_vec())
}

proptest! {
    /// The audited minimum interior spare-degree matches each pattern's
    /// guarantee on any window size (the defective quarter pattern
    /// included), and the density approaches the published RR.
    #[test]
    fn audits_match_guarantees(pattern in arb_pattern(), w in 8u32..20, h in 8u32..20) {
        let region = SquareRegion::rect(w, h);
        let (min, _max) = pattern.audit(&region);
        prop_assert_eq!(min, pattern.guaranteed_spares(), "pattern {}", pattern);
        let (primaries, spares) = pattern.counts(&region);
        prop_assert_eq!(primaries + spares, region.len());
        let rr = spares as f64 / primaries as f64;
        // Odd window heights give stripes up to one extra spare row, so
        // finite-window RR can sit 0.25 above the limit at h = 9.
        prop_assert!(
            (rr - pattern.redundancy_ratio_limit()).abs() <= 0.30,
            "pattern {}: rr {}",
            pattern,
            rr
        );
    }

    /// Reconfigurability is monotone: removing a fault never breaks a
    /// tolerable pattern.
    #[test]
    fn square_reconfig_monotone(
        pattern in arb_pattern(),
        faults in prop::collection::vec((0i32..10, 0i32..10), 1..6),
    ) {
        let region = SquareRegion::rect(10, 10);
        let cells: Vec<SquareCoord> = faults
            .into_iter()
            .map(|(x, y)| SquareCoord::new(x, y))
            .collect();
        if square_dtmb::is_reconfigurable(pattern, &region, &cells) {
            for skip in 0..cells.len() {
                let reduced: Vec<SquareCoord> = cells
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, c)| *c)
                    .collect();
                prop_assert!(square_dtmb::is_reconfigurable(pattern, &region, &reduced));
            }
        }
    }

    /// Spare-only fault sets are always tolerable, and the empty set is.
    #[test]
    fn square_spare_faults_harmless(pattern in arb_pattern(), seed in 0usize..50) {
        let region = SquareRegion::rect(9, 9);
        prop_assert!(square_dtmb::is_reconfigurable(pattern, &region, &[]));
        let spares: Vec<SquareCoord> = region
            .iter()
            .filter(|c| pattern.is_spare_site(*c))
            .skip(seed % 3)
            .collect();
        prop_assert!(square_dtmb::is_reconfigurable(pattern, &region, &spares));
    }

    /// On patterns with a real guarantee (not Quarter), any single primary
    /// fault is tolerable.
    #[test]
    fn single_fault_tolerated_with_guarantee(x in 1i32..9, y in 1i32..9) {
        let region = SquareRegion::rect(10, 10);
        let cell = SquareCoord::new(x, y);
        for pattern in [
            SquarePattern::PerfectCode,
            SquarePattern::Stripes,
            SquarePattern::Checkerboard,
        ] {
            if !pattern.is_spare_site(cell) {
                prop_assert!(
                    square_dtmb::is_reconfigurable(pattern, &region, &[cell]),
                    "pattern {} must tolerate a single interior fault at {}",
                    pattern,
                    cell
                );
            }
        }
    }
}
