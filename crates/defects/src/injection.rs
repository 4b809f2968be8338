//! Stochastic defect injection models.
//!
//! The paper's yield analysis rests on one explicit assumption: "Each
//! single cell in the microfluidic array, including each primary and spare
//! cell, has the same defect probability q. Moreover, the failures of the
//! cells are independent." [`Bernoulli`] implements exactly that.
//! [`ExactCount`] implements the Figure 13 protocol ("we randomly introduce
//! m cell failures"). Clustered defects, which the paper does not model,
//! live in [`crate::clustered`].

use crate::fault::{CatastrophicDefect, DefectCause};
use crate::DefectMap;
use dmfb_grid::{HexCoord, HexDir, Region, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// A stochastic model that turns a chip region into a random defect map.
///
/// Implementors must be deterministic given the RNG: all randomness flows
/// through `rng` so that Monte-Carlo trials are reproducible.
pub trait InjectionModel {
    /// Samples one chip instance's defects.
    fn inject(&self, region: &Region, rng: &mut impl Rng) -> DefectMap;
}

/// Draws a random catastrophic cause for a failed cell, with the relative
/// frequencies loosely following the paper's defect list (opens and
/// breakdowns dominate; shorts are rarer and involve a partner cell).
fn random_catastrophic(cell: HexCoord, region: &Region, rng: &mut impl Rng) -> DefectCause {
    let roll: f64 = rng.gen();
    if roll < 0.4 {
        DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown)
    } else if roll < 0.8 {
        DefectCause::Catastrophic(CatastrophicDefect::OpenConnection)
    } else {
        // Pick a random in-region neighbour for the short; fall back to an
        // open if the cell is isolated (cannot happen on real layouts).
        let dirs: Vec<HexDir> = HexDir::ALL
            .into_iter()
            .filter(|d| region.contains(cell.step(*d)))
            .collect();
        match dirs.choose(rng) {
            Some(d) => DefectCause::Catastrophic(CatastrophicDefect::ElectrodeShort(*d)),
            None => DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
        }
    }
}

/// Independent, identically distributed cell failures — the paper's model.
///
/// # Example
///
/// ```
/// use dmfb_defects::injection::{Bernoulli, InjectionModel};
/// use dmfb_grid::Region;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let model = Bernoulli::from_survival(0.9);
/// let mut rng = StdRng::seed_from_u64(7);
/// let m = model.inject(&Region::parallelogram(20, 20), &mut rng);
/// // ~10% of 400 cells fail.
/// assert!(m.fault_count() > 10 && m.fault_count() < 80);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bernoulli {
    defect_probability: f64,
}

impl Bernoulli {
    /// Creates the model from the defect probability `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    #[must_use]
    pub fn new(defect_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&defect_probability),
            "defect probability must be in [0, 1], got {defect_probability}"
        );
        Bernoulli { defect_probability }
    }

    /// Creates the model from the survival probability `p = 1 − q`, the
    /// parameterisation the paper's figures use.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn from_survival(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "survival probability must be in [0, 1], got {p}"
        );
        Bernoulli::new(1.0 - p)
    }

    /// The defect probability `q`.
    #[must_use]
    pub fn defect_probability(&self) -> f64 {
        self.defect_probability
    }

    /// Topology-generic injection: every cell of `topo` fails independently
    /// with probability `q`, marked with a generic open-connection cause
    /// (cause taxonomy richer than open/failed is hexagonal-specific).
    ///
    /// On a hexagonal [`Region`] this draws the same *fault sets* as
    /// [`InjectionModel::inject`] would, differing only in the recorded
    /// causes and consumed randomness.
    pub fn inject_in<T: Topology>(&self, topo: &T, rng: &mut impl Rng) -> DefectMap<T::Coord> {
        let mut map = DefectMap::new();
        if self.defect_probability == 0.0 {
            return map;
        }
        for cell in topo.cells_iter() {
            if rng.gen_bool(self.defect_probability) {
                map.mark(
                    cell,
                    DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
                );
            }
        }
        map
    }
}

impl InjectionModel for Bernoulli {
    fn inject(&self, region: &Region, rng: &mut impl Rng) -> DefectMap {
        let mut map = DefectMap::new();
        if self.defect_probability == 0.0 {
            return map;
        }
        for cell in region.iter() {
            if rng.gen_bool(self.defect_probability) {
                let cause = random_catastrophic(cell, region, rng);
                map.mark(cell, cause);
            }
        }
        map
    }
}

/// Exactly `m` faulty cells chosen uniformly at random without replacement
/// — the Figure 13 case-study protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactCount {
    faults: usize,
}

impl ExactCount {
    /// Creates the model injecting exactly `faults` failures.
    #[must_use]
    pub fn new(faults: usize) -> Self {
        ExactCount { faults }
    }
}

impl InjectionModel for ExactCount {
    /// # Panics
    ///
    /// Panics if `m` exceeds the number of cells in the region.
    fn inject(&self, region: &Region, rng: &mut impl Rng) -> DefectMap {
        let mut cells: Vec<HexCoord> = region.iter().collect();
        assert!(
            self.faults <= cells.len(),
            "cannot inject {} faults into a {}-cell region",
            self.faults,
            cells.len()
        );
        cells.shuffle(rng);
        let mut map = DefectMap::new();
        for cell in cells.into_iter().take(self.faults) {
            let cause = random_catastrophic(cell, region, rng);
            map.mark(cell, cause);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bernoulli_parameterisations_agree() {
        let a = Bernoulli::new(0.05);
        let b = Bernoulli::from_survival(0.95);
        assert!((a.defect_probability() - b.defect_probability()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        let _ = Bernoulli::new(1.5);
    }

    #[test]
    fn bernoulli_extremes() {
        let region = Region::parallelogram(10, 10);
        let none = Bernoulli::new(0.0).inject(&region, &mut rng(1));
        assert!(none.is_fault_free());
        let all = Bernoulli::new(1.0).inject(&region, &mut rng(1));
        assert_eq!(all.fault_count(), 100);
    }

    #[test]
    fn bernoulli_rate_close_to_q() {
        let region = Region::parallelogram(50, 50);
        let m = Bernoulli::new(0.1).inject(&region, &mut rng(42));
        let rate = m.fault_count() as f64 / 2_500.0;
        assert!((rate - 0.1).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn bernoulli_deterministic_given_seed() {
        let region = Region::parallelogram(15, 15);
        let a = Bernoulli::new(0.2).inject(&region, &mut rng(9));
        let b = Bernoulli::new(0.2).inject(&region, &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn exact_count_is_exact() {
        let region = Region::parallelogram(12, 12);
        for m in [0usize, 1, 7, 50, 144] {
            let map = ExactCount::new(m).inject(&region, &mut rng(5));
            assert_eq!(map.fault_count(), m);
            for c in map.faulty_cells() {
                assert!(region.contains(c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot inject")]
    fn exact_count_rejects_overfull() {
        let region = Region::parallelogram(2, 2);
        let _ = ExactCount::new(5).inject(&region, &mut rng(1));
    }

    #[test]
    fn topology_generic_injection_on_square_lattice() {
        use dmfb_grid::SquareRegion;
        let region = SquareRegion::rect(20, 20);
        let none = Bernoulli::new(0.0).inject_in(&region, &mut rng(1));
        assert!(none.is_fault_free());
        let all = Bernoulli::new(1.0).inject_in(&region, &mut rng(1));
        assert_eq!(all.fault_count(), 400);
    }

    #[test]
    fn shorts_reference_in_region_partners() {
        let region = Region::parallelogram(8, 8);
        // With q = 1 every cell fails; every short must point inside.
        let mut map = Bernoulli::new(1.0).inject(&region, &mut rng(3));
        map.close_shorts();
        for (c, cause) in map.iter() {
            if let DefectCause::Catastrophic(CatastrophicDefect::ElectrodeShort(d)) = cause {
                assert!(region.contains(c.step(*d)), "short partner inside region");
            }
        }
    }
}
