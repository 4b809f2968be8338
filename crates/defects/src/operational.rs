//! Operational (in-service) fault arrival.
//!
//! The paper's Section 2 classifies faults "as either manufacturing or
//! operational". Manufacturing defects are the subject of its yield
//! analysis; operational faults accrue in the field — dielectric ageing
//! under repeated actuation, progressive breakdown at high drive voltage.
//! This module models their arrival; a campaign's `wear` step ages a chip
//! in service through [`MtbfModel::inject_service_faults`].
//!
//! Each cell fails independently as a Poisson process whose rate scales
//! with actuation stress; the first arrival per cell is exponentially
//! distributed with the cell's MTBF.

use crate::fault::{CatastrophicDefect, DefectCause};
use crate::map::DefectMap;
use dmfb_grid::{HexCoord, Region};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponential first-failure model for in-service cells.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MtbfModel {
    /// Mean time between failures of one cell at reference stress, in
    /// hours of operation.
    pub cell_mtbf_hours: f64,
    /// Stress multiplier (≥ 0): 2.0 doubles the failure rate, e.g. when
    /// driving electrodes near the 90 V limit.
    pub stress_factor: f64,
}

impl Default for MtbfModel {
    fn default() -> Self {
        MtbfModel {
            cell_mtbf_hours: 20_000.0,
            stress_factor: 1.0,
        }
    }
}

/// One sampled in-service failure.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Hours of operation at which the cell fails.
    pub at_hours: f64,
    /// The failing cell.
    pub cell: HexCoord,
}

impl FailureEvent {
    /// The defect cause recorded when this in-service failure is folded
    /// into a [`DefectMap`]: dielectric breakdown, the wear-out mechanism
    /// of repeated actuation near the drive-voltage limit (the paper's
    /// Section 2 operational-fault class). Breakdown is catastrophic, so
    /// routed faults block droplet transport exactly like manufacturing
    /// opens do.
    #[must_use]
    pub fn cause(&self) -> DefectCause {
        DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown)
    }
}

impl MtbfModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `cell_mtbf_hours <= 0` or `stress_factor < 0`.
    #[must_use]
    pub fn new(cell_mtbf_hours: f64, stress_factor: f64) -> Self {
        assert!(
            cell_mtbf_hours > 0.0 && cell_mtbf_hours.is_finite(),
            "MTBF must be positive"
        );
        assert!(
            stress_factor >= 0.0 && stress_factor.is_finite(),
            "stress factor must be non-negative"
        );
        MtbfModel {
            cell_mtbf_hours,
            stress_factor,
        }
    }

    /// Effective per-cell failure rate in 1/hours.
    #[must_use]
    pub fn rate_per_hour(&self) -> f64 {
        self.stress_factor / self.cell_mtbf_hours
    }

    /// Probability that a given cell survives `horizon_hours` of service.
    #[must_use]
    pub fn cell_survival(&self, horizon_hours: f64) -> f64 {
        (-self.rate_per_hour() * horizon_hours.max(0.0)).exp()
    }

    /// Expected number of failed cells on `region` after `horizon_hours`.
    #[must_use]
    pub fn expected_failures(&self, region: &Region, horizon_hours: f64) -> f64 {
        region.len() as f64 * (1.0 - self.cell_survival(horizon_hours))
    }

    /// Samples the first-failure events occurring within `horizon_hours`,
    /// sorted by time. Cells whose sampled failure lies beyond the horizon
    /// are omitted.
    #[must_use]
    pub fn sample_failures(
        &self,
        region: &Region,
        horizon_hours: f64,
        rng: &mut impl Rng,
    ) -> Vec<FailureEvent> {
        let rate = self.rate_per_hour();
        if rate <= 0.0 || horizon_hours <= 0.0 {
            return Vec::new();
        }
        let mut events: Vec<FailureEvent> = region
            .iter()
            .filter_map(|cell| {
                // Inverse-CDF sample of Exp(rate), guarding u=0.
                let u: f64 = 1.0 - rng.gen::<f64>();
                let t = -u.ln() / rate;
                (t <= horizon_hours).then_some(FailureEvent { at_hours: t, cell })
            })
            .collect();
        events.sort_by(|a, b| a.at_hours.total_cmp(&b.at_hours));
        events
    }

    /// Samples the failures within `horizon_hours` and folds them into a
    /// [`DefectMap`] with their operational fault class
    /// ([`FailureEvent::cause`]) — the bridge that routes in-service wear
    /// into the same reconfiguration/remapping pipeline as manufacturing
    /// defects. The operational-yield engine merges this map on top of the
    /// manufacturing fault draw to model a chip after `horizon_hours` in
    /// the field.
    #[must_use]
    pub fn inject_service_faults(
        &self,
        region: &Region,
        horizon_hours: f64,
        rng: &mut impl Rng,
    ) -> DefectMap {
        let mut map = DefectMap::new();
        for ev in self.sample_failures(region, horizon_hours, rng) {
            map.mark(ev.cell, ev.cause());
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn survival_decays_with_time_and_stress() {
        let model = MtbfModel::default();
        assert!(model.cell_survival(0.0) > 0.999_999);
        assert!(model.cell_survival(1_000.0) > model.cell_survival(10_000.0));
        let stressed = MtbfModel::new(20_000.0, 3.0);
        assert!(stressed.cell_survival(1_000.0) < model.cell_survival(1_000.0));
        assert!((stressed.rate_per_hour() - 3.0 / 20_000.0).abs() < 1e-15);
    }

    #[test]
    fn sampled_count_matches_expectation() {
        let model = MtbfModel::new(1_000.0, 1.0);
        let region = Region::parallelogram(30, 30);
        let horizon = 500.0;
        let expected = model.expected_failures(&region, horizon);
        let mut rng = StdRng::seed_from_u64(42);
        let mut total = 0usize;
        let reps = 40;
        for _ in 0..reps {
            total += model.sample_failures(&region, horizon, &mut rng).len();
        }
        let mean = total as f64 / f64::from(reps);
        assert!(
            (mean - expected).abs() < expected * 0.1,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn events_sorted_within_horizon_inside_region() {
        let model = MtbfModel::new(100.0, 1.0);
        let region = Region::parallelogram(10, 10);
        let mut rng = StdRng::seed_from_u64(7);
        let events = model.sample_failures(&region, 50.0, &mut rng);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at_hours <= w[1].at_hours);
        }
        for e in &events {
            assert!(e.at_hours <= 50.0 && e.at_hours >= 0.0);
            assert!(region.contains(e.cell));
        }
    }

    #[test]
    fn service_faults_carry_the_operational_class() {
        let model = MtbfModel::new(50.0, 1.0);
        let region = Region::parallelogram(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let map = model.inject_service_faults(&region, 100.0, &mut rng);
        assert!(!map.is_fault_free());
        for (cell, cause) in map.iter() {
            assert!(region.contains(cell));
            assert_eq!(
                *cause,
                DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown)
            );
        }
    }

    #[test]
    fn zero_stress_never_fails() {
        let model = MtbfModel::new(1_000.0, 0.0);
        let region = Region::parallelogram(5, 5);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(model.sample_failures(&region, 1e9, &mut rng).is_empty());
        assert_eq!(model.cell_survival(1e9), 1.0);
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn rejects_bad_mtbf() {
        let _ = MtbfModel::new(0.0, 1.0);
    }
}
