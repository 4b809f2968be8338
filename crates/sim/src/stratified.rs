//! Defect-count-stratified Monte-Carlo estimation for rare-event yields.
//!
//! Plain Monte-Carlo wastes almost every trial in the high-survival regime
//! the paper's figures live in: at `p = 0.999` a 160-cell chip is
//! defect-free ~85% of the time, so resolving a failure probability of
//! `10⁻⁴` takes millions of trials. Conditioning on the defect count `K`
//! fixes that. With i.i.d. cell failures `K ~ Binomial(n, q)`, so the
//! survival probability decomposes exactly as
//!
//! ```text
//! Y = Σₖ P(K = k) · P(survive | K = k)
//! ```
//!
//! The binomial weights `P(K = k)` are known in closed form; only the
//! per-stratum conditional survival probabilities `sₖ = P(survive | K = k)`
//! need sampling — and each stratum is sampled by placing **exactly `k`**
//! defects uniformly at random, which spends every trial on a chip that
//! actually has something to tolerate. [`StratifiedMonteCarlo`] implements
//! the full estimator:
//!
//! * **strata planning** — keep the binomial window around the mode whose
//!   total mass is at least `1 − tolerance` (strata outside the window are
//!   truncated and their mass reported as [`StratifiedEstimate::truncated_mass`]);
//! * **exact strata** — `k = 0` and `k = n` have a *unique* defect
//!   placement, so one evaluation determines `sₖ` exactly with zero
//!   variance; callers holding a structural guarantee (Hall-type bounds
//!   like `TrialEvaluator::guaranteed_tolerable_faults`) extend this to
//!   every `k ≤` [`StratifiedMonteCarlo::with_proven_tolerable`] — this
//!   is where the rare-event speed-up comes from: at `p → 1` most of the
//!   probability mass needs no sampling at all;
//! * **Neyman allocation** — a pilot pass estimates each stratum's
//!   Bernoulli spread, then the remaining trial budget is split
//!   proportionally to `wₖ·σ̃ₖ` (the allocation that minimises the
//!   variance of the combined estimate);
//! * **honest variance reporting** — sampled strata contribute
//!   `wₖ²·s̃ₖ(1−s̃ₖ)/nₖ` with the Agresti–Coull-smoothed
//!   `s̃ₖ = (x+1)/(n+2)`, so an all-success stratum still admits the
//!   failure probability its trial count cannot exclude; only exact
//!   strata contribute nothing. [`StratifiedEstimate::effective_trials`]
//!   converts the variance back into "how many naive trials would this
//!   precision have cost" (a plain naive run scores exactly its own
//!   trial count under the same smoothing).
//!
//! Results are deterministic in `(budget, master_seed)` and independent of
//! thread count: every stratum runs through the same [`MonteCarlo`]
//! machinery as the naive estimator, with per-stratum master seeds derived
//! from [`SeedSequence`].
//!
//! # Example
//!
//! ```
//! use dmfb_sim::StratifiedMonteCarlo;
//!
//! // Estimate P(at most 1 of 50 components fails) at q = 0.01 — the
//! // trial closure receives the stratum's exact defect count.
//! let est = StratifiedMonteCarlo::new(50, 2_000, 7)
//!     .estimate(0.01, || (), |k, _rng, ()| k <= 1);
//! let exact = 0.99f64.powi(50) + 50.0 * 0.01 * 0.99f64.powi(49);
//! assert!((est.point - exact).abs() < 1e-3);
//! assert!(est.variance >= 0.0);
//! ```

use crate::{BernoulliEstimate, MonteCarlo, SeedSequence};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Tuning knobs for [`StratifiedMonteCarlo`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StratifiedConfig {
    /// Maximum total binomial mass the planner may truncate. The point
    /// estimate treats truncated strata as never surviving, so it
    /// understates the true probability by at most this much.
    pub tolerance: f64,
    /// Pilot trials per stochastic stratum, used to estimate the spreads
    /// behind the Neyman allocation before the main budget is split.
    pub pilot: u32,
    /// Hard cap on the number of strata kept (planning stops growing the
    /// window once reached, even if `tolerance` is not yet met).
    pub max_strata: usize,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        StratifiedConfig {
            tolerance: 1e-6,
            pilot: 64,
            max_strata: 48,
        }
    }
}

/// One planned stratum: an exact defect count and its binomial mass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StratumPlan {
    /// The exact defect count this stratum conditions on.
    pub faults: usize,
    /// `P(K = faults)` under `K ~ Binomial(n, q)`.
    pub weight: f64,
}

/// One measured stratum of a [`StratifiedEstimate`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StratumEstimate {
    /// The exact defect count this stratum conditions on.
    pub faults: usize,
    /// `P(K = faults)` under `K ~ Binomial(n, q)`.
    pub weight: f64,
    /// The conditional survival estimate `ŝₖ` and its trial count. For
    /// exact strata this is the true value from a single evaluation.
    pub estimate: BernoulliEstimate,
    /// Whether the stratum was resolved **exactly** rather than sampled:
    /// `k = 0` and `k = n` (unique placement), or
    /// `k ≤ proven_tolerable` (structurally guaranteed success). Exact
    /// strata carry no sampling error and contribute zero variance.
    pub exact: bool,
}

impl StratumEstimate {
    /// The Agresti–Coull-smoothed conditional estimate
    /// `s̃ = (x+1)/(n+2)` used for the variance and effective-trial
    /// bookkeeping of *sampled* strata — never exactly 0 or 1, so an
    /// all-success stratum still admits the failure its trial count
    /// cannot exclude. Exact strata return the true value unchanged.
    #[must_use]
    pub fn smoothed(&self) -> f64 {
        if self.exact {
            self.estimate.point()
        } else {
            (self.estimate.successes() as f64 + 1.0) / (self.estimate.trials() as f64 + 2.0)
        }
    }

    /// This stratum's contribution to the combined variance:
    /// `w²·s̃(1−s̃)/n` for sampled strata, zero for exact ones.
    #[must_use]
    pub fn variance_contribution(&self) -> f64 {
        if self.exact || self.estimate.trials() == 0 {
            return 0.0;
        }
        let s = self.smoothed();
        self.weight * self.weight * s * (1.0 - s) / self.estimate.trials() as f64
    }
}

/// The combined stratified estimate: point, variance, and the per-stratum
/// breakdown behind them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StratifiedEstimate {
    /// `Σₖ wₖ·ŝₖ` over the kept strata. Truncated strata contribute
    /// nothing, so this understates the true probability by at most
    /// [`StratifiedEstimate::truncated_mass`].
    pub point: f64,
    /// Stratified variance `Σ wₖ²·s̃ₖ(1−s̃ₖ)/nₖ` over the *sampled*
    /// strata, with the Agresti–Coull-smoothed `s̃ₖ = (x+1)/(n+2)` so a
    /// stratum whose samples were all-success still admits the failure
    /// probability its trial count cannot rule out. Exact strata
    /// (`k = 0`, `k = n`, structurally proven counts) contribute zero;
    /// the variance is exactly zero only when *nothing* was sampled.
    pub variance: f64,
    /// Binomial mass of the strata the planner dropped.
    pub truncated_mass: f64,
    /// Total trials actually spent (pilot + main, all strata).
    pub trials: u64,
    /// Per-stratum breakdown, ascending in defect count.
    pub strata: Vec<StratumEstimate>,
}

impl StratifiedEstimate {
    /// Standard error of the point estimate.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Normal-approximation 95% interval, widened on the high side by the
    /// truncated mass (the truncated strata could all have survived).
    #[must_use]
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.959_963_984_540_054 * self.std_error();
        (
            (self.point - half).max(0.0),
            (self.point + half + self.truncated_mass).min(1.0),
        )
    }

    /// The smoothed combined estimate `Ỹ = Σ wₖ·s̃ₖ` (exact strata
    /// unchanged) — the numerator companion to the smoothed variance, so
    /// the two never disagree about whether anything is uncertain.
    #[must_use]
    pub fn smoothed_point(&self) -> f64 {
        self.strata.iter().map(|s| s.weight * s.smoothed()).sum()
    }

    /// How many *naive* Monte-Carlo trials it would take to reach this
    /// estimate's precision: naive variance at the same (smoothed)
    /// estimate is `Ỹ(1−Ỹ)/N`, so `N_eff = Ỹ(1−Ỹ)/variance`. Both sides
    /// use the Agresti–Coull smoothing, which makes the definition
    /// self-consistent: a plain naive run scores exactly its own trial
    /// count. Infinite only when every stratum was resolved exactly
    /// (nothing sampled at all); the ratio `effective_trials / trials`
    /// is the rare-event speed-up factor.
    #[must_use]
    pub fn effective_trials(&self) -> f64 {
        let y = self.smoothed_point();
        if self.variance > 0.0 {
            y * (1.0 - y) / self.variance
        } else {
            f64::INFINITY
        }
    }
}

/// Natural log of the binomial probability `P(K = k)` for
/// `K ~ Binomial(n, q)`, computed stably in log space (no underflow for
/// large `n`).
///
/// Returns `f64::NEG_INFINITY` for zero-probability outcomes.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or `k > n`.
#[must_use]
pub fn ln_binomial_pmf(n: usize, k: usize, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be in [0, 1], got {q}");
    assert!(k <= n, "k ({k}) cannot exceed n ({n})");
    if q == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    if q == 1.0 {
        return if k == n { 0.0 } else { f64::NEG_INFINITY };
    }
    // ln C(n, k) accumulated as Σ ln((n-i)/(i+1)) over the smaller side.
    let kk = k.min(n - k);
    let mut ln_choose = 0.0f64;
    for i in 0..kk {
        ln_choose += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    ln_choose + k as f64 * q.ln() + (n - k) as f64 * (1.0 - q).ln()
}

/// Plans the strata for `K ~ Binomial(n, q)`: grows a window outward from
/// the mode, always absorbing the heavier neighbouring stratum next, until
/// the captured mass reaches `1 − tolerance` or `max_strata` is hit.
/// Returns the kept strata (ascending in defect count) and the truncated
/// mass.
#[must_use]
pub fn plan_strata(n: usize, q: f64, config: &StratifiedConfig) -> (Vec<StratumPlan>, f64) {
    assert!(
        config.tolerance >= 0.0 && config.tolerance < 1.0,
        "tolerance must be in [0, 1), got {}",
        config.tolerance
    );
    assert!(config.max_strata >= 1, "need at least one stratum");
    if q == 0.0 || q == 1.0 {
        let k = if q == 0.0 { 0 } else { n };
        return (
            vec![StratumPlan {
                faults: k,
                weight: 1.0,
            }],
            0.0,
        );
    }
    let mode = (((n + 1) as f64) * q).floor().min(n as f64) as usize;
    let weight = |k: usize| ln_binomial_pmf(n, k, q).exp();
    // Two cursors expand the window [lo, hi] outward from the mode.
    let mut lo = mode;
    let mut hi = mode;
    let mut kept: Vec<StratumPlan> = vec![StratumPlan {
        faults: mode,
        weight: weight(mode),
    }];
    let mut mass: f64 = kept[0].weight;
    while mass < 1.0 - config.tolerance && kept.len() < config.max_strata {
        let below = lo.checked_sub(1).map(weight);
        let above = if hi < n { Some(weight(hi + 1)) } else { None };
        let take_below = match (below, above) {
            (Some(b), Some(a)) => b >= a,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (k, w) = if take_below {
            lo -= 1;
            (lo, below.unwrap_or(0.0))
        } else {
            hi += 1;
            (hi, above.unwrap_or(0.0))
        };
        kept.push(StratumPlan {
            faults: k,
            weight: w,
        });
        mass += w;
    }
    kept.sort_unstable_by_key(|s| s.faults);
    ((kept), (1.0 - mass).max(0.0))
}

/// The stratified estimator: owns the cell count, trial budget, master
/// seed, thread count and tuning, and runs caller-supplied exact-`k`
/// trials.
///
/// The trial closure **must** be a deterministic function of the sampled
/// fault set (all randomness drawn from the provided RNG, verdict fixed
/// given the faults). That contract is what makes the `k = 0` and `k = n`
/// strata — whose fault placement is unique — exactly resolvable from a
/// single evaluation.
#[derive(Clone, Debug)]
pub struct StratifiedMonteCarlo {
    cells: usize,
    budget: u32,
    master_seed: u64,
    threads: usize,
    config: StratifiedConfig,
    proven_tolerable: usize,
}

impl StratifiedMonteCarlo {
    /// Creates an estimator over `cells` i.i.d. components with a total
    /// trial `budget`, seeded by `master_seed`. Defaults to
    /// single-threaded execution and [`StratifiedConfig::default`].
    #[must_use]
    pub fn new(cells: usize, budget: u32, master_seed: u64) -> Self {
        StratifiedMonteCarlo {
            cells,
            budget,
            master_seed,
            threads: 1,
            config: StratifiedConfig::default(),
            proven_tolerable: 0,
        }
    }

    /// Declares that every outcome's verdict is **provably `true`** for
    /// any placement of at most `faults` defects (e.g. a Hall-type
    /// structural bound such as
    /// `TrialEvaluator::guaranteed_tolerable_faults`). Strata at or below
    /// the bound are resolved exactly — one confirming evaluation, zero
    /// variance — instead of being sampled, which is where the bulk of
    /// the rare-event speed-up comes from at `p → 1` (the `k = 1` stratum
    /// usually carries most of the non-defect-free mass). The confirming
    /// evaluation asserts the claim, so a wrong bound panics rather than
    /// biasing the estimate.
    #[must_use]
    pub fn with_proven_tolerable(mut self, faults: usize) -> Self {
        self.proven_tolerable = faults;
        self
    }

    /// Distributes each stratum's trials across `threads` worker threads
    /// (`0` = one worker per available core). Results are identical
    /// regardless of thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the tuning configuration.
    #[must_use]
    pub fn with_config(mut self, config: StratifiedConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the stratified experiment for defect probability `q`, one
    /// trial at a time: the width-1 form of
    /// [`StratifiedMonteCarlo::estimate_block`] with one outcome slot.
    ///
    /// `init` builds per-worker scratch state; `trial` receives the
    /// stratum's exact defect count, an RNG, and the scratch, and returns
    /// the survival verdict for one random placement of exactly that many
    /// defects.
    pub fn estimate<S>(
        &self,
        q: f64,
        init: impl Fn() -> S + Sync,
        trial: impl Fn(usize, &mut StdRng, &mut S) -> bool + Sync,
    ) -> StratifiedEstimate {
        self.estimate_block(q, 1, 1, init, |k, seeds, state, counts| {
            for &seed in seeds {
                counts[0] += u64::from(trial(k, &mut StdRng::seed_from_u64(seed), state));
            }
        })
        .pop()
        .expect("one outcome in, one estimate out")
    }

    /// The stratified estimator: plans strata, resolves exact ones,
    /// pilots and Neyman-allocates the stochastic ones, and combines.
    /// Each stratum's exact-`k` trials run through
    /// [`MonteCarlo::tally_blocks_with`] in groups of up to `width` seeds,
    /// and `block_trial(k, seeds, state, counts)` adds, per outcome slot,
    /// how many of the group's placements succeeded. Every slot shares
    /// one trial allocation (e.g. the raw/reconfigured/operational tiers
    /// of one random placement); the Neyman allocation uses each
    /// stratum's *largest* per-outcome spread, so no outcome is starved.
    /// Returns one [`StratifiedEstimate`] per slot.
    ///
    /// Stratum `i`'s pilot and main runs draw their trial seeds from
    /// streams `2i` and `2i + 1` of the master seed, and the allocation
    /// depends only on the counts, so the result is **byte-identical** at
    /// any `width` and thread count — and to
    /// [`StratifiedMonteCarlo::estimate`] whenever `block_trial` gives
    /// each seed the verdict the per-trial closure would (the
    /// `dmfb-reconfig` word-parallel contract).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, `outcomes == 0`, or a proven-tolerable
    /// stratum's confirming evaluation fails.
    pub fn estimate_block<S>(
        &self,
        q: f64,
        width: usize,
        outcomes: usize,
        init: impl Fn() -> S + Sync,
        block_trial: impl Fn(usize, &[u64], &mut S, &mut [u64]) + Sync,
    ) -> Vec<StratifiedEstimate> {
        assert!(outcomes > 0, "need at least one outcome slot");
        let runner = |faults: usize, trials: u32, stream: u64| {
            let seed = SeedSequence::nth_seed(self.master_seed, stream);
            MonteCarlo::new(trials, seed).tally_blocks_with(
                self.threads,
                width,
                outcomes,
                &init,
                |s, st, counts| block_trial(faults, s, st, counts),
            )
        };
        let (plans, truncated_mass) = plan_strata(self.cells, q, &self.config);
        // Per-stratum outcome counts: `counts[s][o]` successes out of
        // `trials_run[s]` trials.
        let mut estimates: Vec<Vec<BernoulliEstimate>> = Vec::with_capacity(plans.len());
        let mut spent: u64 = 0;

        // Phase 0 + 1: exact strata (one evaluation) and pilots. A
        // stratum is exact when its placement is unique (`k = 0`,
        // `k = n`) or when the caller proved every placement tolerable
        // (`k ≤ proven_tolerable`).
        let exact: Vec<bool> = plans
            .iter()
            .map(|s| s.faults == 0 || s.faults == self.cells || s.faults <= self.proven_tolerable)
            .collect();
        let stochastic = exact.iter().filter(|&&e| !e).count();
        let budget = u64::from(self.budget);
        let pilot_each = if stochastic == 0 {
            0
        } else {
            u64::from(self.config.pilot)
                .min(budget.saturating_sub(exact.len() as u64) / stochastic as u64)
                .max(1) as u32
        };
        for (i, plan) in plans.iter().enumerate() {
            let n = if exact[i] { 1 } else { pilot_each };
            let run = runner(plan.faults, n, 2 * i as u64);
            if exact[i] && plan.faults > 0 && plan.faults <= self.proven_tolerable {
                assert!(
                    run.iter().all(|e| e.successes() == e.trials()),
                    "proven_tolerable({}) is wrong: a {}-fault placement failed",
                    self.proven_tolerable,
                    plan.faults
                );
            }
            spent += u64::from(n);
            estimates.push(run);
        }

        // Phase 2: Neyman split of the remaining budget over the
        // stochastic strata, scored by weight × (largest outcome spread,
        // Agresti–Coull-adjusted so extreme pilots keep a positive score).
        let remaining = budget.saturating_sub(spent);
        let scores: Vec<f64> = plans
            .iter()
            .zip(&estimates)
            .zip(&exact)
            .map(|((plan, ests), &is_exact)| {
                if is_exact {
                    0.0
                } else {
                    let spread = ests
                        .iter()
                        .map(|e| {
                            let s = (e.successes() as f64 + 1.0) / (e.trials() as f64 + 2.0);
                            (s * (1.0 - s)).sqrt()
                        })
                        .fold(0.0f64, f64::max);
                    plan.weight * spread
                }
            })
            .collect();
        let extra = apportion(remaining, &scores);
        for (i, (plan, n)) in plans.iter().zip(extra).enumerate() {
            if n == 0 {
                continue;
            }
            let run = runner(
                plan.faults,
                u32::try_from(n).unwrap_or(u32::MAX),
                2 * i as u64 + 1,
            );
            spent += n;
            for (acc, fresh) in estimates[i].iter_mut().zip(run) {
                *acc = acc.merged(fresh);
            }
        }

        // Combine per outcome.
        (0..outcomes)
            .map(|o| {
                let mut point = 0.0;
                let mut variance = 0.0;
                let mut strata = Vec::with_capacity(plans.len());
                for (i, plan) in plans.iter().enumerate() {
                    let stratum = StratumEstimate {
                        faults: plan.faults,
                        weight: plan.weight,
                        estimate: estimates[i][o],
                        exact: exact[i],
                    };
                    point += stratum.weight * stratum.estimate.point();
                    variance += stratum.variance_contribution();
                    strata.push(stratum);
                }
                StratifiedEstimate {
                    point,
                    variance,
                    truncated_mass,
                    trials: spent,
                    strata,
                }
            })
            .collect()
    }
}

/// Splits `total` into integer shares proportional to `scores`
/// (largest-remainder rounding; deterministic). Zero-score slots get
/// nothing; if every score is zero the whole budget is dropped.
fn apportion(total: u64, scores: &[f64]) -> Vec<u64> {
    let sum: f64 = scores.iter().sum();
    if sum <= 0.0 || total == 0 {
        return vec![0; scores.len()];
    }
    let exact: Vec<f64> = scores
        .iter()
        .map(|&s| total as f64 * (s / sum).max(0.0))
        .collect();
    let mut shares: Vec<u64> = exact.iter().map(|&x| x.floor() as u64).collect();
    let assigned: u64 = shares.iter().sum();
    // Hand out the leftovers by descending fractional part (ties broken
    // by index for determinism).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut leftover = total.saturating_sub(assigned);
    for i in order {
        if leftover == 0 {
            break;
        }
        if scores[i] > 0.0 {
            shares[i] += 1;
            leftover -= 1;
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn pmf_matches_direct_computation() {
        // n = 10, q = 0.3: compare against the naive formula.
        let n = 10;
        let q: f64 = 0.3;
        let choose = |k: usize| -> f64 {
            let mut c = 1.0;
            for i in 0..k {
                c = c * (n - i) as f64 / (i + 1) as f64;
            }
            c
        };
        for k in 0..=n {
            let direct = choose(k) * q.powi(k as i32) * (1.0 - q).powi((n - k) as i32);
            let ln = ln_binomial_pmf(n, k, q);
            assert!((ln.exp() - direct).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn pmf_survives_large_n() {
        // p^n underflows in linear space for n = 10^6; log space must not.
        let ln = ln_binomial_pmf(1_000_000, 500_000, 0.5);
        assert!(ln.is_finite());
        // Near the mode the mass is ~1/sqrt(2π·n·q·(1-q)).
        let approx = 1.0 / (2.0 * std::f64::consts::PI * 250_000.0f64).sqrt();
        assert!((ln.exp() - approx).abs() / approx < 0.01);
    }

    #[test]
    fn pmf_extremes() {
        assert_eq!(ln_binomial_pmf(5, 0, 0.0), 0.0);
        assert_eq!(ln_binomial_pmf(5, 3, 0.0), f64::NEG_INFINITY);
        assert_eq!(ln_binomial_pmf(5, 5, 1.0), 0.0);
        assert_eq!(ln_binomial_pmf(5, 1, 1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn plan_covers_tolerance() {
        let config = StratifiedConfig {
            tolerance: 1e-6,
            ..StratifiedConfig::default()
        };
        for &(n, q) in &[(160usize, 0.001), (100, 0.05), (40, 0.5), (7, 0.9)] {
            let (plans, truncated) = plan_strata(n, q, &config);
            let mass: f64 = plans.iter().map(|s| s.weight).sum();
            assert!(mass >= 1.0 - config.tolerance - 1e-12, "n={n} q={q}");
            assert!((1.0 - mass - truncated).abs() < 1e-12);
            assert!(truncated <= config.tolerance + 1e-12);
            // Ascending, distinct, contiguous defect counts.
            for w in plans.windows(2) {
                assert_eq!(w[1].faults, w[0].faults + 1);
            }
        }
    }

    #[test]
    fn plan_degenerate_probabilities() {
        let config = StratifiedConfig::default();
        let (p0, t0) = plan_strata(30, 0.0, &config);
        assert_eq!((p0.len(), p0[0].faults, t0), (1, 0, 0.0));
        let (p1, t1) = plan_strata(30, 1.0, &config);
        assert_eq!((p1.len(), p1[0].faults, t1), (1, 30, 0.0));
    }

    #[test]
    fn plan_respects_max_strata() {
        let config = StratifiedConfig {
            tolerance: 0.0,
            max_strata: 3,
            ..StratifiedConfig::default()
        };
        let (plans, truncated) = plan_strata(100, 0.5, &config);
        assert_eq!(plans.len(), 3);
        assert!(truncated > 0.0);
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let shares = apportion(100, &[1.0, 1.0, 2.0]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        assert_eq!(shares, vec![25, 25, 50]);
        assert_eq!(apportion(10, &[0.0, 0.0]), vec![0, 0]);
        let uneven = apportion(10, &[1.0, 1.0, 1.0]);
        assert_eq!(uneven.iter().sum::<u64>(), 10);
    }

    #[test]
    fn matches_closed_form_threshold_model() {
        // Survive iff at most 2 of 80 cells fail: Y = binomial CDF.
        let n = 80usize;
        let q: f64 = 0.02;
        let exact: f64 = (0..=2).map(|k| ln_binomial_pmf(n, k, q).exp()).sum();
        let est = StratifiedMonteCarlo::new(n, 4_000, 11).estimate(q, || (), |k, _, ()| k <= 2);
        // The verdict depends on k alone, so the sampled per-stratum
        // estimates are error-free — but the estimator cannot know that,
        // so it still reports the smoothed variance its trial counts
        // admit (honesty over optimism).
        assert!((est.point - exact).abs() < 1e-6, "{} vs {exact}", est.point);
        assert!(est.variance > 0.0, "sampled strata must admit error");
        assert!((est.point - exact).abs() < 4.0 * est.std_error() + est.truncated_mass + 1e-6);
    }

    #[test]
    fn proven_tolerable_resolves_low_strata_exactly() {
        // Same threshold model, but the caller *proves* k <= 2 always
        // survives: those strata become exact, and with the surviving
        // mass concentrated there the variance collapses to the k >= 3
        // (all-fail, smoothed) residue.
        let n = 80usize;
        let q: f64 = 0.02;
        let exact: f64 = (0..=2).map(|k| ln_binomial_pmf(n, k, q).exp()).sum();
        let est = StratifiedMonteCarlo::new(n, 4_000, 11)
            .with_proven_tolerable(2)
            .estimate(q, || (), |k, _, ()| k <= 2);
        assert!((est.point - exact).abs() < 1e-6);
        for s in &est.strata {
            assert_eq!(s.exact, s.faults <= 2, "k={}", s.faults);
            if s.exact {
                assert_eq!(s.estimate.trials(), 1);
                assert_eq!(s.variance_contribution(), 0.0);
            } else {
                assert!(s.variance_contribution() > 0.0);
            }
        }
        // The budget that would have gone to the proven strata is
        // re-targeted, so the reported variance beats the un-proven run.
        let unproven =
            StratifiedMonteCarlo::new(n, 4_000, 11).estimate(q, || (), |k, _, ()| k <= 2);
        assert!(
            est.variance < unproven.variance,
            "proven {} vs unproven {}",
            est.variance,
            unproven.variance
        );
    }

    #[test]
    #[should_panic(expected = "proven_tolerable")]
    fn wrong_proven_bound_panics_instead_of_biasing() {
        // Claim k <= 3 always survives while the truth is k <= 2: the
        // confirming evaluation of the k = 3 stratum must catch the lie.
        let _ = StratifiedMonteCarlo::new(40, 500, 7)
            .with_proven_tolerable(3)
            .estimate(0.05, || (), |k, _, ()| k <= 2);
    }

    #[test]
    fn stochastic_strata_agree_with_naive() {
        // A genuinely random verdict: each of the k defects independently
        // "misses" with probability 0.5; survive iff all miss.
        let n = 60usize;
        let q = 0.05;
        let trial = |k: usize, rng: &mut StdRng, (): &mut ()| (0..k).all(|_| rng.gen_bool(0.5));
        let strat = StratifiedMonteCarlo::new(n, 20_000, 3).estimate(q, || (), trial);
        // Closed form: Σ_k w_k 0.5^k = (1 - q/2)^n.
        let exact = (1.0 - q / 2.0).powi(n as i32);
        assert!(
            (strat.point - exact).abs() < 4.0 * strat.std_error() + 1e-3,
            "{} vs {exact} (σ {})",
            strat.point,
            strat.std_error()
        );
        assert!(strat.variance > 0.0);
        assert!(strat.trials <= 20_000);
    }

    #[test]
    fn deterministic_strata_need_one_trial() {
        // q so small that k = 0 dominates: almost the entire budget is
        // left unspent on the deterministic stratum.
        let est = StratifiedMonteCarlo::new(100, 1_000, 5).estimate(1e-9, || (), |k, _, ()| k == 0);
        assert!(est.point > 0.999_999);
        let zero = est.strata.iter().find(|s| s.faults == 0).unwrap();
        assert_eq!(zero.estimate.trials(), 1);
        assert_eq!(zero.estimate.successes(), 1);
    }

    #[test]
    fn thread_invariant() {
        let run = |threads: usize| {
            StratifiedMonteCarlo::new(50, 3_000, 17)
                .with_threads(threads)
                .estimate(0.03, || (), |k, rng, ()| (0..k).all(|_| rng.gen_bool(0.8)))
        };
        let seq = run(1);
        for threads in [0, 2, 5] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn block_engine_is_byte_identical_to_scalar() {
        let trial =
            |k: usize, rng: &mut StdRng, (): &mut ()| k <= 1 || (0..k).all(|_| rng.gen_bool(0.8));
        let scalar = StratifiedMonteCarlo::new(50, 3_000, 17)
            .with_proven_tolerable(1)
            .estimate(0.03, || (), trial);
        for width in [1usize, 64, 512] {
            for threads in [1usize, 3] {
                let block = StratifiedMonteCarlo::new(50, 3_000, 17)
                    .with_proven_tolerable(1)
                    .with_threads(threads)
                    .estimate_block(
                        0.03,
                        width,
                        1,
                        || (),
                        |k, seeds, (), counts| {
                            counts[0] += seeds
                                .iter()
                                .filter(|&&s| trial(k, &mut StdRng::seed_from_u64(s), &mut ()))
                                .count() as u64;
                        },
                    );
                assert_eq!(
                    block,
                    std::slice::from_ref(&scalar),
                    "width={width} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn multi_outcome_shares_placements() {
        // Outcome 0 is a random verdict and outcome 1 its complement.
        // Their Agresti–Coull spreads agree in every stratum, so the
        // shared allocation is each one's own: every slot of the
        // multi-outcome block core equals a scalar run of that outcome.
        let survive = |k: usize, rng: &mut StdRng| (0..k).all(|_| rng.gen_bool(0.7));
        let scalar = |complement: bool| {
            StratifiedMonteCarlo::new(40, 2_000, 9).estimate(
                0.05,
                || (),
                |k, rng, ()| survive(k, rng) != complement,
            )
        };
        let expected = [scalar(false), scalar(true)];
        assert!(expected[0].strata.iter().any(|s| s.estimate.trials() > 64));
        for width in [1usize, 63, 64, 65, 200] {
            for threads in [1usize, 3] {
                let ests = StratifiedMonteCarlo::new(40, 2_000, 9)
                    .with_threads(threads)
                    .estimate_block(
                        0.05,
                        width,
                        2,
                        || (),
                        |k, seeds, (), counts| {
                            for &s in seeds {
                                let v = survive(k, &mut StdRng::seed_from_u64(s));
                                counts[0] += u64::from(v);
                                counts[1] += u64::from(!v);
                            }
                        },
                    );
                assert_eq!(ests, expected, "width={width} threads={threads}");
            }
        }
        // Nested events give nested estimates from one shared allocation.
        let nested = StratifiedMonteCarlo::new(40, 2_000, 9).estimate_block(
            0.05,
            64,
            2,
            || (),
            |k, seeds, (), counts| {
                counts[0] += u64::from(k == 0) * seeds.len() as u64;
                counts[1] += u64::from(k <= 3) * seeds.len() as u64;
            },
        );
        assert!(nested[0].point <= nested[1].point);
        assert_eq!(nested[0].trials, nested[1].trials);
        assert!((nested[0].point - 0.95f64.powi(40)).abs() < 1e-6);
    }

    #[test]
    fn effective_trials_reports_speedup() {
        let est = StratifiedMonteCarlo::new(30, 500, 2).estimate(1e-12, || (), |k, _, ()| k == 0);
        assert_eq!(est.variance, 0.0);
        assert!(est.effective_trials().is_infinite());
        let (lo, hi) = est.ci95();
        assert!(lo <= est.point && est.point <= hi);
        assert!(hi - lo < 2e-6);
    }

    #[test]
    fn budget_is_respected() {
        for budget in [10u32, 100, 5_000] {
            let est = StratifiedMonteCarlo::new(64, budget, 21).estimate(
                0.1,
                || (),
                |k, rng, ()| (0..k).all(|_| rng.gen_bool(0.9)),
            );
            assert!(est.trials <= u64::from(budget).max(est.strata.len() as u64));
        }
    }
}
