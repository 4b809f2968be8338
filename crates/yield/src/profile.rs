//! Fault-tolerance profiles: how many faults until the first
//! unreconfigurable one?
//!
//! Figure 13 asks "what fraction of chips survive exactly `m` random
//! faults?" — the complementary question for a fab is "how many faults
//! does a chip absorb before it dies?". This module estimates the
//! distribution of that random variable `T` by Monte-Carlo: per trial,
//! shuffle all cells into a random failure order and binary-search the
//! longest reconfigurable prefix (reconfigurability is monotone in the
//! fault set, so prefix feasibility is monotone and binary search is
//! sound).

use dmfb_defects::DefectMap;
use dmfb_grid::HexCoord;
use dmfb_reconfig::{local, DefectTolerantArray, ReconfigPolicy};
use dmfb_sim::{SeedSequence, Summary};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The estimated distribution of the maximum tolerable fault count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ToleranceProfile {
    /// Streaming statistics of `T` (mean, stddev, min, max).
    pub stats: Summary,
    /// `histogram[t]` = number of trials whose chip died at fault `t + 1`
    /// (i.e. tolerated exactly `t`).
    pub histogram: Vec<u32>,
    /// Number of Monte-Carlo trials.
    pub trials: u32,
}

impl ToleranceProfile {
    /// Empirical `P(T >= m)`: the fraction of chips that tolerate at least
    /// `m` faults. `P(T >= 0) = 1` by definition.
    #[must_use]
    pub fn survival(&self, m: usize) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let surviving: u32 = self
            .histogram
            .iter()
            .enumerate()
            .filter(|(t, _)| *t >= m)
            .map(|(_, c)| *c)
            .sum();
        f64::from(surviving) / f64::from(self.trials)
    }

    /// The largest `m` with `P(T >= m) >= level` — e.g.
    /// `quantile_at_least(0.90)` answers the paper's "up to how many
    /// faults is yield at least 0.90?".
    #[must_use]
    pub fn quantile_at_least(&self, level: f64) -> usize {
        let mut m = 0;
        while self.survival(m + 1) >= level && m < self.histogram.len() {
            m += 1;
        }
        m
    }
}

/// Estimates the tolerance profile of `array` under `policy`.
///
/// # Panics
///
/// Panics if the array is empty.
#[must_use]
pub fn tolerance_profile(
    array: &DefectTolerantArray,
    policy: &ReconfigPolicy,
    trials: u32,
    seed: u64,
) -> ToleranceProfile {
    let cells: Vec<HexCoord> = array.region().iter().collect();
    assert!(!cells.is_empty(), "array has no cells");
    let mut stats = Summary::new();
    let mut histogram = vec![0u32; cells.len() + 1];

    for trial_seed in SeedSequence::new(seed).take(trials as usize) {
        let mut rng = StdRng::seed_from_u64(trial_seed);
        let mut order = cells.clone();
        order.shuffle(&mut rng);

        // Binary search the longest reconfigurable prefix.
        let feasible = |k: usize| {
            let defects = DefectMap::from_cells(order[..k].iter().copied());
            local::is_reconfigurable(array, &defects, policy)
        };
        let (mut lo, mut hi) = (0usize, order.len());
        // Invariant: feasible(lo), !feasible(hi) — unless everything is
        // tolerable (possible under UsedCells policies).
        if feasible(hi) {
            stats.push(hi as f64);
            histogram[hi] += 1;
            continue;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        stats.push(lo as f64);
        histogram[lo] += 1;
    }

    ToleranceProfile {
        stats,
        histogram,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_reconfig::dtmb::DtmbKind;

    #[test]
    fn profile_basics_dtmb26() {
        let array = DtmbKind::Dtmb26A.with_primary_count(60);
        let profile = tolerance_profile(&array, &ReconfigPolicy::AllPrimaries, 300, 7);
        assert_eq!(profile.trials, 300);
        assert_eq!(
            profile.histogram.iter().map(|c| u64::from(*c)).sum::<u64>(),
            300
        );
        // Every chip tolerates at least one fault (each primary has 2
        // spares, and a single spare fault is harmless).
        assert!(profile.stats.min() >= 1.0);
        assert_eq!(profile.survival(0), 1.0);
        // Survival is non-increasing in m.
        for m in 0..20 {
            assert!(profile.survival(m) >= profile.survival(m + 1) - 1e-12);
        }
    }

    #[test]
    fn profile_consistent_with_exact_fault_yield() {
        // P(T >= m) from the profile must track the Figure 13 estimator.
        use crate::SchemeYield;
        use dmfb_defects::injection::{ExactCount, InjectionModel};
        let array = DtmbKind::Dtmb26A.with_primary_count(60);
        let policy = ReconfigPolicy::AllPrimaries;
        let profile = tolerance_profile(&array, &policy, 2_000, 11);
        let mc = SchemeYield::new(array.clone(), policy);
        for m in [2usize, 5, 10] {
            let model = ExactCount::new(m);
            let direct = mc
                .estimate_with_defects(2_000, 13, |rng| model.inject(array.region(), rng))
                .point();
            let via_profile = profile.survival(m);
            assert!(
                (direct - via_profile).abs() < 0.06,
                "m={m}: direct {direct} vs profile {via_profile}"
            );
        }
    }

    #[test]
    fn higher_redundancy_tolerates_more() {
        let lo = tolerance_profile(
            &DtmbKind::Dtmb16.with_primary_count(60),
            &ReconfigPolicy::AllPrimaries,
            300,
            3,
        );
        let hi = tolerance_profile(
            &DtmbKind::Dtmb44.with_primary_count(60),
            &ReconfigPolicy::AllPrimaries,
            300,
            3,
        );
        assert!(hi.stats.mean() > lo.stats.mean());
        assert!(hi.quantile_at_least(0.9) >= lo.quantile_at_least(0.9));
    }

    #[test]
    fn no_redundancy_dies_on_first_primary_fault() {
        let array = DefectTolerantArray::without_redundancy(dmfb_grid::Region::parallelogram(6, 6));
        let profile = tolerance_profile(&array, &ReconfigPolicy::AllPrimaries, 200, 5);
        // With every cell primary, the first fault is always fatal.
        assert_eq!(profile.stats.max(), 0.0);
        assert_eq!(profile.quantile_at_least(0.9), 0);
    }
}
