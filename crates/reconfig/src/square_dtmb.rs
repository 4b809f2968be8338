//! Interstitial redundancy on *square*-electrode arrays — the ablation
//! behind the paper's choice of hexagonal electrodes.
//!
//! The paper adopts hexagonal electrodes ("this close-packed design is
//! expected to increase the effectiveness of droplet transportation") and
//! builds its DTMB patterns on 6-adjacency. This module constructs the
//! best analogous interstitial patterns on the square lattice's
//! 4-adjacency so the two geometries can be compared at equal guarantees:
//!
//! * [`SquarePattern::PerfectCode`] — the Lee-sphere perfect code
//!   (`x + 2y ≡ 0 mod 5`): every primary sees exactly 1 spare, every spare
//!   serves 4 primaries. `RR = 1/4` — already worse than hex DTMB(1,6)'s
//!   `1/6` for the same `s = 1` guarantee.
//! * [`SquarePattern::Stripes`] — alternating rows: `s = 2, p = 2`,
//!   `RR = 1`. Hex DTMB(2,6) gives the same `s = 2` at `RR = 1/3`.
//! * [`SquarePattern::Checkerboard`] — `s = 4, p = 4`, `RR = 1`; the
//!   square twin of hex DTMB(4,4).
//! * [`SquarePattern::Quarter`] — the naive port of hex DTMB(2,6)'s
//!   "both coordinates even" sublattice. On 4-adjacency it *fails*: cells
//!   with both coordinates odd have **zero** adjacent spares, so single
//!   faults on them are untolerable. This is microfluidic locality biting
//!   exactly as the paper warns.

use dmfb_grid::{SquareCoord, SquareRegion};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Interstitial spare patterns on the square lattice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SquarePattern {
    /// Lee-sphere perfect code, `s = 1, p = 4`, `RR = 1/4`.
    PerfectCode,
    /// Alternating spare rows, `s = 2, p = 2`, `RR = 1`.
    Stripes,
    /// Checkerboard, `s = 4, p = 4`, `RR = 1`.
    Checkerboard,
    /// Naive density-1/4 sublattice (`x, y` both even); leaves the
    /// odd/odd cells unprotected — included as a cautionary ablation.
    Quarter,
}

impl fmt::Display for SquarePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SquarePattern::PerfectCode => write!(f, "square perfect-code (s=1)"),
            SquarePattern::Stripes => write!(f, "square stripes (s=2)"),
            SquarePattern::Checkerboard => write!(f, "square checkerboard (s=4)"),
            SquarePattern::Quarter => write!(f, "square quarter (defective)"),
        }
    }
}

impl SquarePattern {
    /// All four patterns.
    pub const ALL: [SquarePattern; 4] = [
        SquarePattern::PerfectCode,
        SquarePattern::Stripes,
        SquarePattern::Checkerboard,
        SquarePattern::Quarter,
    ];

    /// Whether lattice site `c` is a spare under this pattern.
    #[must_use]
    pub fn is_spare_site(self, c: SquareCoord) -> bool {
        match self {
            SquarePattern::PerfectCode => (c.x + 2 * c.y).rem_euclid(5) == 0,
            SquarePattern::Stripes => c.y.rem_euclid(2) == 0,
            SquarePattern::Checkerboard => (c.x + c.y).rem_euclid(2) == 0,
            SquarePattern::Quarter => c.x.rem_euclid(2) == 0 && c.y.rem_euclid(2) == 0,
        }
    }

    /// The guaranteed number of adjacent spares per primary on the
    /// *infinite* lattice — 0 for the defective quarter pattern.
    #[must_use]
    pub fn guaranteed_spares(self) -> usize {
        match self {
            SquarePattern::PerfectCode => 1,
            SquarePattern::Stripes => 2,
            SquarePattern::Checkerboard => 4,
            SquarePattern::Quarter => 0,
        }
    }

    /// The large-array redundancy ratio.
    #[must_use]
    pub fn redundancy_ratio_limit(self) -> f64 {
        match self {
            SquarePattern::PerfectCode => 0.25,
            SquarePattern::Stripes | SquarePattern::Checkerboard => 1.0,
            SquarePattern::Quarter => 1.0 / 3.0,
        }
    }

    /// `(min, max)` adjacent-spare count over the interior primaries of
    /// `region` — the square analogue of the hex degree audit, via the
    /// lattice-generic [`crate::scheme_audit`].
    #[must_use]
    pub fn audit(self, region: &SquareRegion) -> (usize, usize) {
        crate::scheme_audit(region, &self)
    }

    /// Counts of (primaries, spares) over `region`.
    #[must_use]
    pub fn counts(self, region: &SquareRegion) -> (usize, usize) {
        let spares = region.iter().filter(|c| self.is_spare_site(*c)).count();
        (region.len() - spares, spares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrialEvaluator;

    /// Whether `faulty` is tolerable on `pattern` over `region`.
    fn tolerable(pattern: SquarePattern, region: &SquareRegion, faulty: &[SquareCoord]) -> bool {
        let eval = TrialEvaluator::for_scheme(region, &pattern);
        eval.evaluate_faulty_cells(faulty, &mut eval.scratch())
    }

    #[test]
    fn perfect_code_covers_every_primary_once() {
        let region = SquareRegion::rect(20, 20);
        let (min, max) = SquarePattern::PerfectCode.audit(&region);
        assert_eq!(
            (min, max),
            (1, 1),
            "perfect code: every primary sees 1 spare"
        );
        // RR approaches 1/4.
        let (p, s) = SquarePattern::PerfectCode.counts(&region);
        let rr = s as f64 / p as f64;
        assert!((rr - 0.25).abs() < 0.03, "rr {rr}");
    }

    #[test]
    fn stripes_and_checkerboard_degrees() {
        let region = SquareRegion::rect(16, 16);
        assert_eq!(SquarePattern::Stripes.audit(&region), (2, 2));
        assert_eq!(SquarePattern::Checkerboard.audit(&region), (4, 4));
    }

    #[test]
    fn quarter_pattern_leaves_holes() {
        // The naive port of the hex DTMB(2,6) sublattice fails on the
        // square lattice: odd/odd primaries have zero adjacent spares.
        let region = SquareRegion::rect(12, 12);
        let (min, max) = SquarePattern::Quarter.audit(&region);
        assert_eq!(min, 0, "odd/odd cells are unprotected");
        assert_eq!(max, 2);
        // And a single fault there is fatal.
        assert!(!tolerable(
            SquarePattern::Quarter,
            &region,
            &[SquareCoord::new(3, 3)]
        ));
        // ...while the perfect code tolerates any single primary fault.
        assert!(tolerable(
            SquarePattern::PerfectCode,
            &region,
            &[SquareCoord::new(3, 3)]
        ));
    }

    #[test]
    fn square_needs_more_area_than_hex_for_s1() {
        // The headline comparison: full single-spare coverage costs
        // RR = 1/4 on the square lattice vs 1/6 on the hexagonal lattice.
        use crate::dtmb::DtmbKind;
        assert!(
            SquarePattern::PerfectCode.redundancy_ratio_limit()
                > DtmbKind::Dtmb16.redundancy_ratio_limit() * 1.4
        );
    }

    #[test]
    fn reconfiguration_via_matching() {
        let region = SquareRegion::rect(10, 10);
        // Two primaries sharing their only spare on the perfect code: find
        // a spare at (x+2y)%5==0, take two of its primary neighbours.
        let spare = region
            .iter()
            .find(|c| {
                SquarePattern::PerfectCode.is_spare_site(*c)
                    && c.neighbors4().all(|n| region.contains(n))
            })
            .unwrap();
        let nbrs: Vec<SquareCoord> = spare.neighbors4().collect();
        // One fault: fine.
        assert!(tolerable(SquarePattern::PerfectCode, &region, &[nbrs[0]]));
        // Two faults contending for the same single spare: fatal (s = 1).
        assert!(!tolerable(
            SquarePattern::PerfectCode,
            &region,
            &[nbrs[0], nbrs[1]]
        ));
        // Checkerboard absorbs both (s = 4).
        assert!(tolerable(
            SquarePattern::Checkerboard,
            &region,
            &[nbrs[0], nbrs[1]]
        ));
    }

    #[test]
    fn spare_faults_alone_harmless() {
        let region = SquareRegion::rect(8, 8);
        let spares: Vec<SquareCoord> = region
            .iter()
            .filter(|c| SquarePattern::Stripes.is_spare_site(*c))
            .collect();
        assert!(tolerable(SquarePattern::Stripes, &region, &spares));
    }

    #[test]
    fn display_names() {
        for p in SquarePattern::ALL {
            assert!(!p.to_string().is_empty());
        }
    }
}
