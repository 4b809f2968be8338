//! The published interstitial-redundancy patterns (paper Figures 3–6).
//!
//! Each `DTMB(s, p)` design is an infinite lattice colouring that marks a
//! sublattice of cells as spares:
//!
//! | design     | spare sites (axial `(q, r)`)          | `RR → s/p` |
//! |------------|----------------------------------------|------------|
//! | DTMB(1, 6) | `3q + r ≡ 0 (mod 7)` — 7-cell flowers  | 1/6        |
//! | DTMB(2, 6) A | `q ≡ 0 (mod 2)` and `r ≡ 0 (mod 2)`  | 1/3        |
//! | DTMB(2, 6) B | `r ≡ 0 (mod 2)` and `q − r/2 ≡ 0 (mod 2)` | 1/3   |
//! | DTMB(3, 6) | `q − r ≡ 0 (mod 3)` — one 3-colour class | 1/2      |
//! | DTMB(4, 4) | `r ≡ 0 (mod 2)` — alternating rows     | 1/1        |
//!
//! The degree properties (each interior primary adjacent to exactly `s`
//! spares, each interior spare adjacent to exactly `p` primaries) are
//! verified by unit and property tests against the audit in
//! [`DefectTolerantArray::audit`].

use crate::array::{CellRole, DefectTolerantArray};
use dmfb_grid::{HexCoord, Region, SlotIndex};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The defect-tolerant designs evaluated in the paper, plus the alternative
/// DTMB(2,6) placement of Figure 4(b).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DtmbKind {
    /// DTMB(1, 6): one spare per 7-cell hexagonal cluster (Figure 3).
    Dtmb16,
    /// DTMB(2, 6), variant of Figure 4(a).
    Dtmb26A,
    /// DTMB(2, 6), alternative variant of Figure 4(b).
    Dtmb26B,
    /// DTMB(3, 6) (Figure 5).
    Dtmb36,
    /// DTMB(4, 4): alternating spare rows (Figure 6).
    Dtmb44,
}

impl fmt::Display for DtmbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmbKind::Dtmb16 => write!(f, "DTMB(1,6)"),
            DtmbKind::Dtmb26A => write!(f, "DTMB(2,6)"),
            DtmbKind::Dtmb26B => write!(f, "DTMB(2,6)-alt"),
            DtmbKind::Dtmb36 => write!(f, "DTMB(3,6)"),
            DtmbKind::Dtmb44 => write!(f, "DTMB(4,4)"),
        }
    }
}

impl DtmbKind {
    /// The four distinct designs of Table 1 (variant A stands in for
    /// DTMB(2,6)).
    pub const TABLE1: [DtmbKind; 4] = [
        DtmbKind::Dtmb16,
        DtmbKind::Dtmb26A,
        DtmbKind::Dtmb36,
        DtmbKind::Dtmb44,
    ];

    /// All five patterns including the alternative DTMB(2,6) placement.
    pub const ALL: [DtmbKind; 5] = [
        DtmbKind::Dtmb16,
        DtmbKind::Dtmb26A,
        DtmbKind::Dtmb26B,
        DtmbKind::Dtmb36,
        DtmbKind::Dtmb44,
    ];

    /// The `(s, p)` parameters of Definition 1.
    #[must_use]
    pub const fn spec(self) -> (usize, usize) {
        match self {
            DtmbKind::Dtmb16 => (1, 6),
            DtmbKind::Dtmb26A | DtmbKind::Dtmb26B => (2, 6),
            DtmbKind::Dtmb36 => (3, 6),
            DtmbKind::Dtmb44 => (4, 4),
        }
    }

    /// The large-array redundancy ratio `RR ≈ s/p` (Table 1).
    #[must_use]
    pub fn redundancy_ratio_limit(self) -> f64 {
        let (s, p) = self.spec();
        s as f64 / p as f64
    }

    /// Whether lattice site `cell` is a spare under this pattern.
    #[must_use]
    pub fn is_spare_site(self, cell: HexCoord) -> bool {
        let (q, r) = (cell.q, cell.r);
        match self {
            // Index-7 sublattice generated by (2,1) and (-1,3): membership
            // reduces to 3q + r ≡ 0 (mod 7).
            DtmbKind::Dtmb16 => (3 * q + r).rem_euclid(7) == 0,
            // Index-4 sublattice generated by (2,0) and (0,2).
            DtmbKind::Dtmb26A => q.rem_euclid(2) == 0 && r.rem_euclid(2) == 0,
            // Index-4 sublattice generated by (2,0) and (1,2).
            DtmbKind::Dtmb26B => r.rem_euclid(2) == 0 && (q - r / 2).rem_euclid(2) == 0,
            // One class of the perfect 3-colouring of the hex lattice.
            DtmbKind::Dtmb36 => (q - r).rem_euclid(3) == 0,
            // Alternating lattice rows.
            DtmbKind::Dtmb44 => r.rem_euclid(2) == 0,
        }
    }

    /// Instantiates the pattern over `region`, assigning every cell a role.
    #[must_use]
    pub fn instantiate(self, region: &Region) -> DefectTolerantArray {
        self.over(region.clone())
    }

    /// [`DtmbKind::instantiate`] on an owned region.
    fn over(self, region: Region) -> DefectTolerantArray {
        DefectTolerantArray::with_roles(region, Some(self), |c| {
            if self.is_spare_site(c) {
                CellRole::Spare
            } else {
                CellRole::Primary
            }
        })
    }

    /// Builds an array with exactly `primaries` primary cells plus **all
    /// spare sites adjacent to any of them**.
    ///
    /// Completing the spare pattern around the boundary guarantees every
    /// primary — boundary ones included — has the full complement of `s`
    /// adjacent spares, matching the paper's arrays: its case-study
    /// DTMB(2,6) chip has 91 spares for 252 primaries, *more* than the bulk
    /// ratio `252/3 = 84`, precisely because the pattern is closed around
    /// the edges. The spare count is therefore ~`primaries × RR` plus
    /// boundary extras.
    ///
    /// This is how the Figure 7/9/10 experiments fix `n` while keeping the
    /// interstitial protection intact.
    ///
    /// # Panics
    ///
    /// Panics if `primaries == 0`.
    #[must_use]
    pub fn with_primary_count(self, primaries: usize) -> DefectTolerantArray {
        assert!(primaries > 0, "need at least one primary cell");
        let (side, selected) = self.select_primary_sites(primaries);
        // Mark the selection and its spare neighbours on a dense box one
        // cell wider than the window, then read the region off in slot
        // (sorted) order.
        let index = SlotIndex::spanning(HexCoord::ORIGIN, HexCoord::new(side - 1, side - 1));
        let mut member = vec![false; index.slot_count()];
        for c in selected {
            let slot = index.slot(c).expect("selected sites lie in the window");
            member[slot] = true;
            for n in index.neighbors(slot) {
                if self.is_spare_site(index.cell(n)) {
                    member[n] = true;
                }
            }
        }
        self.over(
            (0..member.len())
                .filter(|&s| member[s])
                .map(|s| index.cell(s))
                .collect(),
        )
    }

    /// Builds an array with exactly `primaries` primary and `spares` spare
    /// cells. Starts from [`DtmbKind::with_primary_count`] and then trims
    /// surplus spares (least-connected, highest-coordinate first) or grows
    /// extra pattern-consistent spares at the boundary until the spare
    /// count matches. Used to reproduce the Figure 12(a) chip
    /// (252 primary + 91 spare cells).
    ///
    /// # Panics
    ///
    /// Panics if `primaries == 0` or if the requested spare count is
    /// unreachable for this pattern (off by more than 50% from the natural
    /// count).
    #[must_use]
    pub fn with_exact_counts(self, primaries: usize, spares: usize) -> DefectTolerantArray {
        let natural = self.with_primary_count(primaries);
        let have = natural.spare_count();
        assert!(
            (spares as f64) >= 0.5 * have as f64 && (spares as f64) <= 1.5 * have as f64 + 1.0,
            "{self} cannot supply {spares} spares for {primaries} primaries \
             (natural count is {have})"
        );
        let mut region = natural.region().clone();
        if have > spares {
            // Trim the spares that protect the fewest primaries first.
            let mut candidates: Vec<(usize, HexCoord)> = natural
                .spares()
                .map(|s| (natural.adjacent_primaries(s).count(), s))
                .collect();
            candidates.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            for (_, s) in candidates.into_iter().take(have - spares) {
                region.remove(s);
            }
        } else if have < spares {
            // Grow pattern-consistent spare sites adjacent to the region.
            let mut needed = spares - have;
            let mut frontier: Vec<HexCoord> = Vec::new();
            for c in natural.region().iter() {
                for n in c.neighbors() {
                    if !natural.region().contains(n) && self.is_spare_site(n) {
                        frontier.push(n);
                    }
                }
            }
            frontier.sort();
            frontier.dedup();
            for s in frontier {
                if needed == 0 {
                    break;
                }
                if region.insert(s) {
                    needed -= 1;
                }
            }
            assert!(needed == 0, "{self}: could not grow enough spare sites");
        }
        self.over(region)
    }

    /// Picks `count` primary sites deterministically: the first `count`
    /// primaries, in sorted order, of the smallest `side × side`
    /// parallelogram window (`side ≥ 2`) that holds that many. Returns
    /// the side with the sites.
    fn select_primary_sites(self, count: usize) -> (i32, Vec<HexCoord>) {
        let is_primary = |q: i32, r: i32| !self.is_spare_site(HexCoord::new(q, r));
        // No window of fewer than `count` cells can hold `count` primaries.
        let least = count.isqrt() + usize::from(count.isqrt().pow(2) < count);
        let mut side = i32::try_from(least.max(2)).expect("window side fits in i32");
        let mut found = (0..side)
            .map(|q| (0..side).filter(|&r| is_primary(q, r)).count())
            .sum::<usize>();
        while found < count {
            // Grow the window by column `side` and row `side`.
            found += (0..=side).filter(|&r| is_primary(side, r)).count()
                + (0..side).filter(|&q| is_primary(q, side)).count();
            side = side.checked_add(1).expect("window side fits in i32");
        }
        let sites = (0..side)
            .flat_map(|q| (0..side).map(move |r| HexCoord::new(q, r)))
            .filter(|c| is_primary(c.q, c.r))
            .take(count)
            .collect();
        (side, sites)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_redundancy_ratios() {
        assert!((DtmbKind::Dtmb16.redundancy_ratio_limit() - 0.1667).abs() < 1e-3);
        assert!((DtmbKind::Dtmb26A.redundancy_ratio_limit() - 0.3333).abs() < 1e-3);
        assert!((DtmbKind::Dtmb36.redundancy_ratio_limit() - 0.5).abs() < 1e-12);
        assert!((DtmbKind::Dtmb44.redundancy_ratio_limit() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_guarantees_hold_on_large_arrays() {
        for kind in DtmbKind::ALL {
            let array = kind.instantiate(&Region::parallelogram(20, 20));
            let audit = array.audit().unwrap();
            let (s, p) = kind.spec();
            assert!(
                audit.matches(s, p),
                "{kind}: audit {audit:?} vs spec ({s}, {p})"
            );
            assert!(audit.interior_primaries > 0);
            assert!(audit.interior_spares > 0);
        }
    }

    #[test]
    fn finite_redundancy_ratio_approaches_limit() {
        for kind in DtmbKind::ALL {
            let array = kind.instantiate(&Region::parallelogram(40, 40));
            let rr = array.redundancy_ratio();
            let limit = kind.redundancy_ratio_limit();
            assert!(
                (rr - limit).abs() < 0.05,
                "{kind}: finite RR {rr} vs limit {limit}"
            );
        }
    }

    #[test]
    fn spare_patterns_are_independent_sets_where_expected() {
        // For the (·, 6) designs spares have six primary neighbours, so no
        // two spares may be adjacent.
        for kind in [
            DtmbKind::Dtmb16,
            DtmbKind::Dtmb26A,
            DtmbKind::Dtmb26B,
            DtmbKind::Dtmb36,
        ] {
            let region = Region::parallelogram(15, 15);
            let array = kind.instantiate(&region);
            for s in array.spares() {
                for n in region.neighbors_in(s) {
                    assert!(!array.is_spare(n), "{kind}: adjacent spares at {s} and {n}");
                }
            }
        }
    }

    #[test]
    fn dtmb44_spares_form_rows() {
        let array = DtmbKind::Dtmb44.instantiate(&Region::parallelogram(8, 8));
        for s in array.spares() {
            assert_eq!(s.r.rem_euclid(2), 0);
        }
        // RR = 1 exactly on an even-height parallelogram.
        assert_eq!(array.spare_count(), array.primary_count());
    }

    #[test]
    fn with_primary_count_is_exact() {
        for kind in DtmbKind::ALL {
            for n in [30usize, 60, 100] {
                let array = kind.with_primary_count(n);
                assert_eq!(array.primary_count(), n, "{kind} n={n}");
                assert!(array.spare_count() > 0);
                assert_eq!(array.kind(), Some(kind));
            }
        }
    }

    #[test]
    fn with_exact_counts_matches_figure12_chip() {
        let array = DtmbKind::Dtmb26A.with_exact_counts(252, 91);
        assert_eq!(array.primary_count(), 252);
        assert_eq!(array.spare_count(), 91);
        assert_eq!(array.total_cells(), 343);
    }

    #[test]
    #[should_panic(expected = "cannot supply")]
    fn with_exact_counts_rejects_impossible_ratio() {
        // DTMB(1,6) cannot provide one spare per primary at scale.
        let _ = DtmbKind::Dtmb16.with_exact_counts(100, 100);
    }

    #[test]
    fn display_names() {
        assert_eq!(DtmbKind::Dtmb16.to_string(), "DTMB(1,6)");
        assert_eq!(DtmbKind::Dtmb26B.to_string(), "DTMB(2,6)-alt");
    }

    #[test]
    fn dtmb16_clusters_have_six_primaries_around_each_spare() {
        let region = Region::parallelogram(21, 21);
        let array = DtmbKind::Dtmb16.instantiate(&region);
        for s in array.spares() {
            if !region.is_boundary(s).unwrap() {
                assert_eq!(array.adjacent_primaries(s).count(), 6);
            }
        }
    }
}
