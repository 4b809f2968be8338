//! The Monte-Carlo engine.

use crate::{BernoulliEstimate, SeedSequence};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Maps the public "0 = one worker per core" convention onto a concrete
/// worker count.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        crate::sweep::auto_threads()
    } else {
        threads
    }
}

/// A reproducible Monte-Carlo experiment runner.
///
/// Each trial receives its own [`StdRng`] seeded from a [`SeedSequence`], so
/// an experiment's result depends only on `(trials, master_seed)` — never on
/// thread count or scheduling.
///
/// # Example
///
/// ```
/// use dmfb_sim::MonteCarlo;
/// use rand::Rng;
///
/// let mc = MonteCarlo::new(5_000, 1);
/// let seq = mc.run_parallel(1, |rng| rng.gen_bool(0.5));
/// // `0` threads means "one worker per available core"
/// // (std::thread::available_parallelism).
/// let par = mc.run_parallel(0, |rng| rng.gen_bool(0.5));
/// assert_eq!(seq.successes(), par.successes());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MonteCarlo {
    trials: u32,
    master_seed: u64,
}

impl MonteCarlo {
    /// Creates an engine that will run `trials` trials seeded by
    /// `master_seed`.
    #[must_use]
    pub fn new(trials: u32, master_seed: u64) -> Self {
        MonteCarlo {
            trials,
            master_seed,
        }
    }

    /// Runs the experiment across `threads` worker threads (`0` means one
    /// worker per available core, per [`crate::sweep::auto_threads`]). The
    /// result is identical for every thread count because each trial's RNG
    /// depends only on its index.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run_parallel(
        &self,
        threads: usize,
        trial: impl Fn(&mut StdRng) -> bool + Sync,
    ) -> BernoulliEstimate {
        self.run_parallel_with(threads, || (), |rng, ()| trial(rng))
    }

    /// Per-thread-state variant of [`MonteCarlo::run_parallel`]: each
    /// worker thread calls `init` once and reuses the returned scratch for
    /// all of its trials, so buffers allocated in `init` amortise across
    /// the run (the incremental-evaluator pattern in `dmfb-reconfig`).
    /// Results are byte-identical for any thread count, because every
    /// trial's RNG depends only on the trial index.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run_parallel_with<S>(
        &self,
        threads: usize,
        init: impl Fn() -> S + Sync,
        trial: impl Fn(&mut StdRng, &mut S) -> bool + Sync,
    ) -> BernoulliEstimate {
        self.run_blocks_with(threads, 1, init, |seeds, state| {
            seeds
                .iter()
                .filter(|&&seed| trial(&mut StdRng::seed_from_u64(seed), state))
                .count() as u32
        })
    }

    /// Block-parallel counterpart of [`MonteCarlo::run_parallel_with`]:
    /// trials are handed to `block` in groups of up to `width` *seeds*
    /// (the same `SeedSequence` seeds the per-trial runners use, in trial
    /// order), and `block` returns how many of them succeeded.
    ///
    /// Because each trial's seed depends only on its global index, the
    /// result is identical for any `width`, any `threads`, and to the
    /// per-trial runners — provided `block` gives each seed the verdict
    /// the per-trial closure would (the contract the `dmfb-reconfig`
    /// word-parallel engine upholds).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or a worker thread panics.
    pub fn run_blocks_with<S>(
        &self,
        threads: usize,
        width: usize,
        init: impl Fn() -> S + Sync,
        block: impl Fn(&[u64], &mut S) -> u32 + Sync,
    ) -> BernoulliEstimate {
        let counts = self.fold_blocks(threads, width, 1, init, |seeds, state, counts| {
            counts[0] += u64::from(block(seeds, state));
        });
        BernoulliEstimate::new(counts[0], u64::from(self.trials))
    }

    /// Runs a *vector-valued* experiment: `block` receives a group of up
    /// to `width` trial seeds and *adds* each slot's success count for
    /// those trials into the `k`-slot count vector, one estimate per slot.
    /// Per-worker count vectors are summed element-wise, so the estimates
    /// are identical for any `width` and `threads`.
    ///
    /// This is how one Monte-Carlo pass serves an entire yield curve: a
    /// trial draws one random chip and reports, for each survival
    /// probability on the grid, whether that chip would have been
    /// tolerable.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or a worker thread panics.
    pub fn tally_blocks_with<S>(
        &self,
        threads: usize,
        width: usize,
        k: usize,
        init: impl Fn() -> S + Sync,
        block: impl Fn(&[u64], &mut S, &mut [u64]) + Sync,
    ) -> Vec<BernoulliEstimate> {
        self.fold_blocks(threads, width, k, init, block)
            .into_iter()
            .map(|c| BernoulliEstimate::new(c, u64::from(self.trials)))
            .collect()
    }

    /// The one trial loop behind every runner. Trial `i` gets seed
    /// `SeedSequence::nth_seed(master, i)`; seeds are cut into blocks of
    /// `width` consecutive trials, block `b` runs on worker
    /// `b % threads`, and each worker adds into its own `k`-slot count
    /// vector, summed element-wise at the end. Counts are integers, so the
    /// sum — and every estimate — is independent of `width` and `threads`.
    /// At width 1 this is the trial-strided schedule of a per-trial runner.
    fn fold_blocks<S>(
        &self,
        threads: usize,
        width: usize,
        k: usize,
        init: impl Fn() -> S + Sync,
        block: impl Fn(&[u64], &mut S, &mut [u64]) + Sync,
    ) -> Vec<u64> {
        assert!(width > 0, "block width must be positive");
        let total = u64::from(self.trials);
        let blocks = total.div_ceil(width as u64);
        let threads = resolve_threads(threads).min(blocks.max(1) as usize) as u64;
        let worker = |t: u64| {
            let mut state = init();
            let mut seeds = Vec::with_capacity(width);
            let mut counts = vec![0u64; k];
            for b in (t..blocks).step_by(threads as usize) {
                seeds.clear();
                seeds.extend(
                    (b * width as u64..total.min((b + 1) * width as u64))
                        .map(|i| SeedSequence::nth_seed(self.master_seed, i)),
                );
                block(&seeds, &mut state, &mut counts);
            }
            counts
        };
        if threads == 1 {
            return worker(0);
        }
        std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || worker(t)))
                .collect();
            let mut counts = vec![0u64; k];
            for h in handles {
                for (c, l) in counts.iter_mut().zip(h.join().expect("worker")) {
                    *c += l;
                }
            }
            counts
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn reproducible_runs() {
        let mc = MonteCarlo::new(1_000, 7);
        let a = mc.run_parallel(1, |rng| rng.gen_bool(0.3));
        let b = mc.run_parallel(1, |rng| rng.gen_bool(0.3));
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_equals_sequential() {
        let mc = MonteCarlo::new(2_000, 99);
        let seq = mc.run_parallel(1, |rng| rng.gen_bool(0.42));
        // 0 = one worker per available core.
        for threads in [0, 1, 2, 3, 8] {
            let par = mc.run_parallel(threads, |rng| rng.gen_bool(0.42));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn per_thread_state_is_reused_and_results_match() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mc = MonteCarlo::new(1_000, 5);
        let trial = |rng: &mut StdRng, buf: &mut Vec<u8>| {
            buf.clear();
            buf.push(1);
            rng.gen_bool(0.37)
        };
        // One worker calls `init` exactly once.
        let inits = AtomicU32::new(0);
        let seq = mc.run_parallel_with(
            1,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u8>::with_capacity(16)
            },
            trial,
        );
        assert_eq!(inits.into_inner(), 1);
        assert_eq!(seq, mc.run_parallel(1, |rng| rng.gen_bool(0.37)));
        for threads in [0, 1, 2, 5] {
            let par = mc.run_parallel_with(threads, || Vec::<u8>::with_capacity(16), trial);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    /// `k` Bernoulli slots per trial from one uniform (common random
    /// numbers), counted by a plain loop over the seed stream — the
    /// reference every runner must reproduce.
    fn reference_tally(mc: &MonteCarlo, grid: &[f64]) -> Vec<BernoulliEstimate> {
        let mut counts = vec![0u64; grid.len()];
        for seed in SeedSequence::new(mc.master_seed).take(mc.trials as usize) {
            let u: f64 = StdRng::seed_from_u64(seed).gen();
            for (c, &p) in counts.iter_mut().zip(grid) {
                *c += u64::from(u < p);
            }
        }
        counts
            .into_iter()
            .map(|c| BernoulliEstimate::new(c, u64::from(mc.trials)))
            .collect()
    }

    #[test]
    fn estimates_converge() {
        let mc = MonteCarlo::new(20_000, 3);
        let est = mc.run_parallel(1, |rng| rng.gen_bool(0.8));
        assert!((est.point() - 0.8).abs() < 0.01);
        let (lo, hi) = est.wilson95();
        assert!(lo <= 0.8 && 0.8 <= hi);
    }

    #[test]
    fn zero_trials() {
        let mc = MonteCarlo::new(0, 5);
        let est = mc.run_parallel(1, |_| true);
        assert_eq!(est.trials(), 0);
        assert_eq!(est.point(), 0.0);
    }

    #[test]
    fn zero_threads_means_auto() {
        let mc = MonteCarlo::new(64, 5);
        let auto = mc.run_parallel(0, |rng| rng.gen_bool(0.5));
        let seq = mc.run_parallel(1, |rng| rng.gen_bool(0.5));
        assert_eq!(auto, seq);
    }

    #[test]
    fn blocks_match_scalar_at_any_width_and_thread_count() {
        let mc = MonteCarlo::new(1_003, 77);
        let reference = reference_tally(&mc, &[0.42]);
        for threads in [1usize, 3] {
            // The per-trial runner is the block core at width 1.
            let per_trial = mc.run_parallel_with(threads, || (), |rng, ()| rng.gen::<f64>() < 0.42);
            assert_eq!(per_trial, reference[0], "threads={threads}");
            for width in [1usize, 17, 64, 256] {
                let blocked = mc.run_blocks_with(
                    threads,
                    width,
                    || (),
                    |seeds, ()| {
                        seeds
                            .iter()
                            .filter(|&&s| StdRng::seed_from_u64(s).gen::<f64>() < 0.42)
                            .count() as u32
                    },
                );
                assert_eq!(blocked, per_trial, "width={width} threads={threads}");
            }
        }
    }

    #[test]
    fn tally_blocks_match_scalar_tally() {
        let mc = MonteCarlo::new(997, 31);
        let grid = [0.1, 0.3, 0.5, 0.7, 0.9];
        let reference = reference_tally(&mc, &grid);
        // Slots are monotone in p by construction (common random numbers).
        assert!(reference
            .windows(2)
            .all(|w| w[0].successes() <= w[1].successes()));
        for threads in [0usize, 1, 3, 7] {
            for width in [1usize, 17, 64, 256] {
                let blocked = mc.tally_blocks_with(
                    threads,
                    width,
                    grid.len(),
                    || (),
                    |seeds, (), counts| {
                        for &s in seeds {
                            let u: f64 = StdRng::seed_from_u64(s).gen();
                            for (c, &p) in counts.iter_mut().zip(&grid) {
                                *c += u64::from(u < p);
                            }
                        }
                    },
                );
                assert_eq!(blocked, reference, "width={width} threads={threads}");
            }
        }
    }

    #[test]
    fn zero_trials_block_runner() {
        let mc = MonteCarlo::new(0, 9);
        let est = mc.run_blocks_with(4, 64, || (), |seeds, ()| seeds.len() as u32);
        assert_eq!(est.trials(), 0);
    }

    #[test]
    #[should_panic(expected = "block width must be positive")]
    fn block_runner_rejects_zero_width() {
        let _ = MonteCarlo::new(10, 1).run_blocks_with(1, 0, || (), |_, ()| 0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MonteCarlo::new(500, 1).run_parallel(1, |rng| rng.gen_bool(0.5));
        let b = MonteCarlo::new(500, 2).run_parallel(1, |rng| rng.gen_bool(0.5));
        // Overwhelmingly likely to differ in exact success count.
        assert_ne!(a.successes(), b.successes());
    }
}
