//! Yield curves and crossover analysis.
//!
//! Figure 10's conclusion is about *crossovers*: "a microfluidic structure
//! with the higher level of redundancy, such as DTMB(4,4), is suitable for
//! small values of p. On the other hand, a lower level of redundancy, such
//! as DTMB(1,6) or DTMB(2,6), should be used when p is relatively high."
//! [`YieldCurve::crossover_with`] locates those switch-over points.

use crate::scheme_yield::YieldPoint;
use serde::{Deserialize, Serialize};

/// A named yield (or effective-yield) curve over a swept parameter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct YieldCurve {
    /// Curve label, e.g. `"DTMB(2,6)"`.
    pub label: String,
    /// Samples in ascending `x` order.
    pub points: Vec<YieldPoint>,
}

impl YieldCurve {
    /// Creates a curve; points are sorted by `x`.
    #[must_use]
    pub fn new(label: impl Into<String>, mut points: Vec<YieldPoint>) -> Self {
        points.sort_by(|a, b| a.x.total_cmp(&b.x));
        YieldCurve {
            label: label.into(),
            points,
        }
    }

    /// Applies a transformation to every `y` (and its CI), e.g. the
    /// `1/(1+RR)` effective-yield scaling.
    #[must_use]
    pub fn map_y(&self, f: impl Fn(f64) -> f64) -> YieldCurve {
        YieldCurve {
            label: self.label.clone(),
            points: self
                .points
                .iter()
                .map(|p| YieldPoint {
                    x: p.x,
                    y: f(p.y),
                    ci95: (f(p.ci95.0), f(p.ci95.1)),
                    trials: p.trials,
                })
                .collect(),
        }
    }

    /// Linear interpolation of the curve at `x`; clamps outside the domain.
    /// Returns `None` for an empty curve.
    #[must_use]
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        let first = self.points.first()?;
        let last = self.points.last()?;
        if x <= first.x {
            return Some(first.y);
        }
        if x >= last.x {
            return Some(last.y);
        }
        for w in self.points.windows(2) {
            if w[0].x <= x && x <= w[1].x {
                let t = (x - w[0].x) / (w[1].x - w[0].x);
                return Some(w[0].y + t * (w[1].y - w[0].y));
            }
        }
        None
    }

    /// Finds the `x` positions where this curve and `other` cross, by sign
    /// change of their difference on the common grid (linear between
    /// samples). Tangential touches are not reported.
    #[must_use]
    pub fn crossover_with(&self, other: &YieldCurve) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|p| p.x)
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let mut crossings = Vec::new();
        let mut prev: Option<(f64, f64)> = None;
        for &x in &xs {
            let (Some(a), Some(b)) = (self.interpolate(x), other.interpolate(x)) else {
                continue;
            };
            let d = a - b;
            if let Some((px, pd)) = prev {
                if pd * d < 0.0 {
                    // Linear root between px and x.
                    let t = pd / (pd - d);
                    crossings.push(px + t * (x - px));
                }
            }
            prev = Some((x, d));
        }
        crossings
    }

    /// The largest `x` whose yield is still at least `threshold`, assuming
    /// the curve is non-increasing (Figure 13 usage: "For up to 35 faults,
    /// the redundant design can provide a yield of at least 0.90").
    #[must_use]
    pub fn last_x_at_least(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .rev()
            .find(|p| p.y >= threshold)
            .map(|p| p.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> YieldPoint {
        YieldPoint {
            x,
            y,
            ci95: (y, y),
            trials: 1,
        }
    }

    #[test]
    fn sorted_on_construction() {
        let c = YieldCurve::new("c", vec![pt(2.0, 0.5), pt(1.0, 0.9)]);
        assert!(c.points[0].x < c.points[1].x);
    }

    #[test]
    fn interpolation_clamps_and_blends() {
        let c = YieldCurve::new("c", vec![pt(0.0, 0.0), pt(1.0, 1.0)]);
        assert_eq!(c.interpolate(-1.0), Some(0.0));
        assert_eq!(c.interpolate(2.0), Some(1.0));
        assert!((c.interpolate(0.25).unwrap() - 0.25).abs() < 1e-12);
        assert!(YieldCurve::new("e", vec![]).interpolate(0.5).is_none());
    }

    #[test]
    fn crossover_detected() {
        // a falls, b rises; they cross at x = 0.5.
        let a = YieldCurve::new("a", vec![pt(0.0, 1.0), pt(1.0, 0.0)]);
        let b = YieldCurve::new("b", vec![pt(0.0, 0.0), pt(1.0, 1.0)]);
        let xs = a.crossover_with(&b);
        assert_eq!(xs.len(), 1);
        assert!((xs[0] - 0.5).abs() < 1e-12);
        // No crossing when one dominates.
        let c = YieldCurve::new("c", vec![pt(0.0, 2.0), pt(1.0, 2.0)]);
        assert!(a.crossover_with(&c).is_empty());
    }

    #[test]
    fn map_y_scales() {
        let c = YieldCurve::new("c", vec![pt(0.0, 0.8)]);
        let e = c.map_y(|y| y / 2.0);
        assert!((e.points[0].y - 0.4).abs() < 1e-12);
        assert_eq!(e.label, "c");
    }

    #[test]
    fn last_x_threshold() {
        let c = YieldCurve::new(
            "c",
            vec![pt(0.0, 1.0), pt(10.0, 0.95), pt(20.0, 0.91), pt(30.0, 0.80)],
        );
        assert_eq!(c.last_x_at_least(0.90), Some(20.0));
        assert_eq!(c.last_x_at_least(0.99), Some(0.0));
        assert_eq!(c.last_x_at_least(1.1), None);
    }
}
