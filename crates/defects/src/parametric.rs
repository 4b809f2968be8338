//! Parametric fault modelling: geometry deviations vs. tolerance.
//!
//! "Manufacturing defects that cause parametric faults include geometrical
//! parameter deviations. The deviation in insulator thickness, electrode
//! length and height between parallel plates may exceed their tolerance
//! value during fabrication. ... A parametric fault is detectable only if
//! this deviation exceeds the tolerance in system performance."

use crate::fault::{DefectCause, ParametricDefect};
use crate::DefectMap;
use dmfb_grid::Region;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Nominal cell geometry of the biochip described in the paper's Section 3.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeometryNominal {
    /// Parylene C insulator thickness in nanometres (~800 nm).
    pub insulator_thickness_nm: f64,
    /// Electrode pitch in micrometres.
    pub electrode_length_um: f64,
    /// Gap between the two parallel glass plates in micrometres.
    pub plate_gap_um: f64,
}

impl Default for GeometryNominal {
    fn default() -> Self {
        GeometryNominal {
            insulator_thickness_nm: 800.0,
            electrode_length_um: 1_000.0,
            plate_gap_um: 300.0,
        }
    }
}

/// Relative manufacturing spread (one standard deviation) and tolerance
/// (maximum acceptable |relative deviation|) per geometry parameter.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParametricModel {
    /// Std-dev of the relative deviation of each parameter.
    pub sigma: f64,
    /// Tolerance: a cell is parametrically *faulty* when any parameter's
    /// |relative deviation| exceeds this.
    pub tolerance: f64,
}

impl Default for ParametricModel {
    fn default() -> Self {
        // With sigma = 4% and tolerance = 12% (3 sigma), out-of-tolerance
        // cells are rare, matching the paper's focus on catastrophic
        // defects for the headline yield numbers.
        ParametricModel {
            sigma: 0.04,
            tolerance: 0.12,
        }
    }
}

/// One cell's sampled relative deviations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CellDeviation {
    /// Insulator thickness relative deviation.
    pub insulator: f64,
    /// Electrode length relative deviation.
    pub electrode: f64,
    /// Plate gap relative deviation.
    pub plate_gap: f64,
}

impl CellDeviation {
    /// The largest |relative deviation| and the parameter it belongs to.
    #[must_use]
    pub fn worst(&self) -> (ParametricDefect, f64) {
        let cands = [
            (ParametricDefect::InsulatorThickness, self.insulator),
            (ParametricDefect::ElectrodeLength, self.electrode),
            (ParametricDefect::PlateGap, self.plate_gap),
        ];
        cands
            .into_iter()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .expect("non-empty candidates")
    }
}

/// Samples a standard normal variate via Box–Muller (the `rand` crate alone
/// provides only uniform primitives).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0) by sampling in the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl ParametricModel {
    /// Creates a model from spread and tolerance.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative.
    #[must_use]
    pub fn new(sigma: f64, tolerance: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        ParametricModel { sigma, tolerance }
    }

    /// Samples the geometry deviation of one cell.
    pub fn sample_cell(&self, rng: &mut impl Rng) -> CellDeviation {
        CellDeviation {
            insulator: self.sigma * standard_normal(rng),
            electrode: self.sigma * standard_normal(rng),
            plate_gap: self.sigma * standard_normal(rng),
        }
    }

    /// Whether a sampled deviation constitutes a parametric *fault*.
    #[must_use]
    pub fn is_fault(&self, dev: &CellDeviation) -> bool {
        dev.worst().1.abs() > self.tolerance
    }

    /// Probability that a single parameter stays within tolerance
    /// (`erf`-based closed form approximated by Abramowitz–Stegun 7.1.26).
    #[must_use]
    fn per_parameter_pass_probability(&self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let z = self.tolerance / self.sigma;
        erf(z / std::f64::consts::SQRT_2)
    }

    /// Probability a cell is parametrically fault-free (all three
    /// parameters in tolerance, independent).
    #[must_use]
    pub fn cell_pass_probability(&self) -> f64 {
        self.per_parameter_pass_probability().powi(3)
    }

    /// Injects parametric faults over `region`: each cell's geometry is
    /// sampled and out-of-tolerance cells are marked with their worst
    /// parameter.
    pub fn inject(&self, region: &Region, rng: &mut impl Rng) -> DefectMap {
        let mut map = DefectMap::new();
        for cell in region.iter() {
            let dev = self.sample_cell(rng);
            if self.is_fault(&dev) {
                let (param, value) = dev.worst();
                map.mark(cell, DefectCause::Parametric(param, value));
            }
        }
        map
    }
}

/// Abramowitz–Stegun 7.1.26 rational approximation of `erf` (|err| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_are_sane() {
        let nominal = GeometryNominal::default();
        assert!((nominal.insulator_thickness_nm - 800.0).abs() < 1e-9);
        let model = ParametricModel::default();
        assert!(model.tolerance > model.sigma);
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn pass_probability_monotone_in_tolerance() {
        let tight = ParametricModel::new(0.05, 0.05);
        let loose = ParametricModel::new(0.05, 0.20);
        assert!(loose.cell_pass_probability() > tight.cell_pass_probability());
        assert!(ParametricModel::new(0.0, 0.1).cell_pass_probability() == 1.0);
    }

    #[test]
    fn sampled_fault_rate_matches_closed_form() {
        let model = ParametricModel::new(0.05, 0.08);
        let region = Region::parallelogram(60, 60);
        let mut rng = StdRng::seed_from_u64(17);
        let map = model.inject(&region, &mut rng);
        let rate = map.fault_count() as f64 / region.len() as f64;
        let expected = 1.0 - model.cell_pass_probability();
        assert!(
            (rate - expected).abs() < 0.03,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn worst_picks_largest_magnitude() {
        let dev = CellDeviation {
            insulator: 0.02,
            electrode: -0.3,
            plate_gap: 0.1,
        };
        let (param, value) = dev.worst();
        assert_eq!(param, ParametricDefect::ElectrodeLength);
        assert!((value + 0.3).abs() < 1e-12);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn faults_marked_with_parametric_cause() {
        // Sigma huge, tolerance tiny: everything fails parametrically.
        let model = ParametricModel::new(1.0, 1e-9);
        let region = Region::parallelogram(4, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let map = model.inject(&region, &mut rng);
        assert_eq!(map.fault_count(), 16);
        for (_, cause) in map.iter() {
            assert!(matches!(cause, DefectCause::Parametric(..)));
        }
    }
}
