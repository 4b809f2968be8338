//! Droplet contents and the electrowetting transport model.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The chemical contents of a droplet: concentration (mM) per species.
///
/// # Example
///
/// ```
/// use dmfb_bioassay::droplet::Mixture;
///
/// let mut reagent = Mixture::single("glucose_oxidase", 2.0);
/// reagent.set("peroxidase", 1.0);
/// assert_eq!(reagent.concentration("glucose_oxidase"), 2.0);
/// assert_eq!(reagent.concentration("glucose"), 0.0);
/// ```
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Mixture {
    species: BTreeMap<String, f64>,
}

impl Mixture {
    /// An empty (buffer-only) mixture.
    #[must_use]
    pub fn new() -> Self {
        Mixture::default()
    }

    /// A mixture containing one species at `concentration_mm` (mM).
    ///
    /// # Panics
    ///
    /// Panics if the concentration is negative or non-finite.
    #[must_use]
    pub fn single(species: impl Into<String>, concentration_mm: f64) -> Self {
        let mut m = Mixture::new();
        m.set(species, concentration_mm);
        m
    }

    /// Sets the concentration of a species.
    ///
    /// # Panics
    ///
    /// Panics if the concentration is negative or non-finite.
    pub fn set(&mut self, species: impl Into<String>, concentration_mm: f64) {
        assert!(
            concentration_mm.is_finite() && concentration_mm >= 0.0,
            "concentration must be finite and non-negative"
        );
        self.species.insert(species.into(), concentration_mm);
    }

    /// The concentration of `species`, 0 if absent.
    #[must_use]
    pub fn concentration(&self, species: &str) -> f64 {
        self.species.get(species).copied().unwrap_or(0.0)
    }
}

/// The electrowetting actuation model: control voltage determines droplet
/// velocity (observed up to ~20 cm/s, paper Section 3), which with the
/// electrode pitch gives the per-move actuation time.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ElectrowettingModel {
    /// Control voltage in volts (0–90 V usable range).
    pub voltage_v: f64,
    /// Electrode pitch in micrometres.
    pub pitch_um: f64,
}

impl Default for ElectrowettingModel {
    fn default() -> Self {
        ElectrowettingModel {
            voltage_v: 60.0,
            pitch_um: 1_000.0,
        }
    }
}

impl ElectrowettingModel {
    /// Threshold voltage below which the droplet does not move.
    pub const THRESHOLD_V: f64 = 12.0;
    /// Maximum usable control voltage.
    pub const MAX_V: f64 = 90.0;
    /// Peak droplet velocity at maximum voltage (cm/s).
    pub const MAX_VELOCITY_CM_S: f64 = 20.0;

    /// Creates a model, clamping the voltage into `[0, 90]`.
    #[must_use]
    pub fn with_voltage(voltage_v: f64, pitch_um: f64) -> Self {
        ElectrowettingModel {
            voltage_v: voltage_v.clamp(0.0, Self::MAX_V),
            pitch_um,
        }
    }

    /// Droplet velocity in cm/s: zero below threshold, then linear in the
    /// excess voltage up to 20 cm/s at 90 V.
    #[must_use]
    pub fn velocity_cm_s(&self) -> f64 {
        if self.voltage_v <= Self::THRESHOLD_V {
            return 0.0;
        }
        let span = Self::MAX_V - Self::THRESHOLD_V;
        Self::MAX_VELOCITY_CM_S * (self.voltage_v - Self::THRESHOLD_V) / span
    }

    /// Time for one cell-to-cell move in milliseconds; `None` when the
    /// voltage is below the actuation threshold.
    #[must_use]
    pub fn step_time_ms(&self) -> Option<f64> {
        let v = self.velocity_cm_s();
        if v <= 0.0 {
            return None;
        }
        // pitch [um] -> cm = 1e-4; time [s] = dist/vel; -> ms.
        Some(self.pitch_um * 1e-4 / v * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_concentration_rejected() {
        let _ = Mixture::single("x", -1.0);
    }

    #[test]
    fn velocity_curve() {
        let stuck = ElectrowettingModel::with_voltage(10.0, 1_000.0);
        assert_eq!(stuck.velocity_cm_s(), 0.0);
        assert!(stuck.step_time_ms().is_none());
        let max = ElectrowettingModel::with_voltage(90.0, 1_000.0);
        assert!((max.velocity_cm_s() - 20.0).abs() < 1e-12);
        // 1 mm at 20 cm/s = 5 ms.
        assert!((max.step_time_ms().unwrap() - 5.0).abs() < 1e-9);
        // Monotone in voltage.
        let mid = ElectrowettingModel::with_voltage(50.0, 1_000.0);
        assert!(mid.velocity_cm_s() < max.velocity_cm_s());
        assert!(mid.velocity_cm_s() > 0.0);
        // Clamping.
        let over = ElectrowettingModel::with_voltage(200.0, 1_000.0);
        assert!((over.voltage_v - 90.0).abs() < 1e-12);
    }
}
