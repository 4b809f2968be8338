//! Property-based tests for the Monte-Carlo engine and statistics.

use dmfb_sim::{wilson_interval, BernoulliEstimate, MonteCarlo, SeedSequence};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    /// Wilson intervals are ordered, inside [0,1], and contain the point
    /// estimate for any counts.
    #[test]
    fn wilson_interval_well_formed(trials in 0u64..100_000, frac in 0.0f64..=1.0) {
        let successes = (trials as f64 * frac) as u64;
        let est = BernoulliEstimate::new(successes, trials);
        let (lo, hi) = est.wilson95();
        prop_assert!(lo <= hi);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= est.point() && est.point() <= hi);
    }

    /// Larger z never shrinks the interval.
    #[test]
    fn wilson_monotone_in_z(s in 0u64..500, extra in 0u64..500, z in 0.1f64..4.0) {
        let t = s + extra;
        let (lo1, hi1) = wilson_interval(s, t, z);
        let (lo2, hi2) = wilson_interval(s, t, z + 0.5);
        prop_assert!(lo2 <= lo1 + 1e-12);
        prop_assert!(hi2 >= hi1 - 1e-12);
    }

    /// The parallel Monte-Carlo runner gives identical results for any
    /// thread count.
    #[test]
    fn parallel_thread_invariance(trials in 1u32..400, seed in 0u64..1000, threads in 1usize..6, bias in 0.0f64..=1.0) {
        let mc = MonteCarlo::new(trials, seed);
        let seq = mc.run_parallel(1, |rng| rng.gen_bool(bias));
        let par = mc.run_parallel(threads, |rng| rng.gen_bool(bias));
        prop_assert_eq!(seq, par);
    }

    /// Seed streams are reproducible and collision-free over short spans.
    #[test]
    fn seed_stream_properties(master in 0u64..u64::MAX / 2, len in 1usize..200) {
        let a: Vec<u64> = SeedSequence::new(master).take(len).collect();
        let b: Vec<u64> = SeedSequence::new(master).take(len).collect();
        prop_assert_eq!(&a, &b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), len);
        for (i, s) in a.iter().enumerate() {
            prop_assert_eq!(SeedSequence::nth_seed(master, i as u64), *s);
        }
    }
}
