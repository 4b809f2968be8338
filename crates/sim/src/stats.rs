//! Estimators and confidence intervals.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A Bernoulli (success proportion) estimate from a Monte-Carlo run.
///
/// # Example
///
/// ```
/// use dmfb_sim::BernoulliEstimate;
///
/// let est = BernoulliEstimate::new(9_000, 10_000);
/// assert_eq!(est.point(), 0.9);
/// let (lo, hi) = est.wilson95();
/// assert!(lo < 0.9 && 0.9 < hi);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BernoulliEstimate {
    successes: u64,
    trials: u64,
}

impl BernoulliEstimate {
    /// Creates an estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    #[must_use]
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "successes ({successes}) cannot exceed trials ({trials})"
        );
        BernoulliEstimate { successes, trials }
    }

    /// Number of successful trials.
    #[must_use]
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Total number of trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate `successes / trials` (0 when there are no trials).
    #[must_use]
    pub fn point(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The 95% Wilson score interval.
    #[must_use]
    pub fn wilson95(&self) -> (f64, f64) {
        wilson_interval(self.successes, self.trials, 1.959_963_984_540_054)
    }

    /// Merges two independent estimates of the same quantity.
    #[must_use]
    pub fn merged(self, other: BernoulliEstimate) -> BernoulliEstimate {
        BernoulliEstimate::new(self.successes + other.successes, self.trials + other.trials)
    }
}

impl fmt::Display for BernoulliEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.wilson95();
        write!(
            f,
            "{:.4} (95% CI [{:.4}, {:.4}], {}/{} trials)",
            self.point(),
            lo,
            hi,
            self.successes,
            self.trials
        )
    }
}

/// The Wilson score interval for a binomial proportion.
///
/// Unlike the normal approximation, the Wilson interval is well behaved at
/// proportions near 0 and 1 — exactly where yield estimates live.
/// Returns `(0.0, 1.0)` when `trials == 0`.
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // Analytically the Wilson interval always contains the point estimate;
    // guard against floating-point rounding pushing a bound past it.
    let lo = (center - half).max(0.0).min(p);
    let hi = (center + half).min(1.0).max(p);
    (lo, hi)
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use dmfb_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.sample_variance(), 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_point_and_bounds() {
        let e = BernoulliEstimate::new(0, 0);
        assert_eq!(e.point(), 0.0);
        assert_eq!(e.wilson95(), (0.0, 1.0));
        let e = BernoulliEstimate::new(10, 10);
        assert_eq!(e.point(), 1.0);
        let (lo, hi) = e.wilson95();
        assert!(lo > 0.6 && hi == 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn bernoulli_rejects_impossible_counts() {
        let _ = BernoulliEstimate::new(2, 1);
    }

    #[test]
    fn wilson_shrinks_with_trials() {
        let width = |e: BernoulliEstimate| {
            let (lo, hi) = e.wilson95();
            hi - lo
        };
        let narrow = width(BernoulliEstimate::new(9_000, 10_000));
        let wide = width(BernoulliEstimate::new(90, 100));
        assert!(narrow < wide);
    }

    #[test]
    fn wilson_contains_point_estimate() {
        for (s, t) in [(0u64, 10u64), (5, 10), (10, 10), (9999, 10000)] {
            let e = BernoulliEstimate::new(s, t);
            let (lo, hi) = e.wilson95();
            assert!(lo <= e.point() && e.point() <= hi, "{s}/{t}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn merged_estimates_pool_counts() {
        let a = BernoulliEstimate::new(3, 10);
        let b = BernoulliEstimate::new(7, 10);
        let m = a.merged(b);
        assert_eq!(m.point(), 0.5);
        assert_eq!(m.trials(), 20);
        assert_eq!(m.successes(), 10);
    }

    #[test]
    fn summary_known_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn display_nonempty() {
        let e = BernoulliEstimate::new(1, 2);
        assert!(e.to_string().contains("0.5"));
    }
}
