//! Transposed Bernoulli defect sampling: 64 independent trials per word.
//!
//! The scalar injection path ([`crate::injection::Bernoulli`]) draws one
//! uniform per cell per trial. [`BlockSampler`] transposes that loop: it
//! runs up to 64 per-trial generators in lock-step (one *lane* per trial)
//! and emits, for each cell, a single `u64` **fault word** whose bit `L`
//! is the fault flag of lane `L` — the bit-sliced Bernoulli draw the
//! word-parallel classifier tiers consume directly.
//!
//! The transposition is **byte-identical**: lane `L` seeded with
//! `seeds[L]` replays exactly the stream of
//! `StdRng::seed_from_u64(seeds[L])`, and [`fault_threshold`] turns the
//! scalar `u >= p` float compare into an equivalent integer mantissa
//! compare. A trial's verdict therefore never depends on which lane,
//! block, or thread evaluated it — the caller keeps the scalar engine's
//! `SeedSequence` trial→seed mapping and gets bit-identical results at
//! any block width.
//!
//! # Example
//!
//! ```
//! use dmfb_defects::block::{fault_threshold, BlockSampler};
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! let seeds = [11u64, 22, 33];
//! let mut sampler = BlockSampler::new(&seeds);
//! let mut word = [0u64; 1]; // one cell, three trials
//! sampler.fill_fault_words(fault_threshold(0.95), &mut word);
//! let mut scalar = StdRng::seed_from_u64(22);
//! let u: f64 = scalar.gen();
//! assert_eq!((word[0] >> 1) & 1 == 1, u >= 0.95);
//! ```

use dmfb_graph::words::{lane_mask, mantissa_threshold, LaneRngs, LANES};

/// Integer mantissa threshold equivalent to the scalar fault test
/// `rng.gen::<f64>() >= p` for survival probability `p` — defect-model
/// alias of [`dmfb_graph::words::mantissa_threshold`].
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
#[must_use]
pub fn fault_threshold(p: f64) -> u64 {
    mantissa_threshold(p)
}

/// Up to 64 lock-step per-trial generators emitting one fault word per
/// cell draw.
///
/// Construction order is the contract: the caller draws cells in the
/// same order as the scalar engine (the evaluator's sorted cell order),
/// one [`BlockSampler::fill_fault_words`] (or
/// [`BlockSampler::fill_fault_words_store`]) slot per cell, so each lane
/// consumes its stream exactly like `survival_trial`'s per-cell loop.
///
/// Every fill also keeps each lane's fault count — the number of words
/// it staged with that lane's bit set — for
/// [`BlockSampler::fault_counts`].
#[derive(Clone, Debug)]
pub struct BlockSampler {
    rngs: LaneRngs,
    lanes: usize,
    /// Per-lane fault counts of the last fill (idle lanes zero).
    counts: [u64; LANES],
    /// [`BlockSampler::exact_fault_words`]' lock-step draws, one
    /// `LANES`-wide row per fault.
    draws: Vec<u64>,
    /// Sparse Fisher–Yates slot table of [`BlockSampler::exact_fault_words`]:
    /// `fy_slot[x]` is permutation slot `x` of the current lane when
    /// `fy_stamp[x] == fy_generation`, and `x` itself otherwise, so a new
    /// lane clears nothing. Sized lazily on the first exact-count call.
    fy_slot: Vec<u32>,
    fy_stamp: Vec<u32>,
    fy_generation: u32,
}

impl BlockSampler {
    /// Creates a sampler with one lane per seed (at most 64).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 seeds are supplied.
    #[must_use]
    pub fn new(seeds: &[u64]) -> Self {
        BlockSampler {
            rngs: LaneRngs::new(seeds),
            lanes: seeds.len(),
            counts: [0; LANES],
            draws: Vec::new(),
            fy_slot: Vec::new(),
            fy_stamp: Vec::new(),
            fy_generation: 0,
        }
    }

    /// Reseeds in place for the next block of trials, reusing the state
    /// arrays.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 seeds are supplied.
    pub fn reseed(&mut self, seeds: &[u64]) {
        self.rngs.reseed(seeds);
        self.lanes = seeds.len();
    }

    /// All-ones mask over the live lanes; idle lanes read as zero in
    /// every fault word, so they never contribute faults.
    #[must_use]
    pub fn live_mask(&self) -> u64 {
        lane_mask(self.lanes)
    }

    /// Per-lane fault counts of the last fill: `fault_counts()[L]` is how
    /// many of the words it staged have bit `L` set (zero for idle lanes).
    #[must_use]
    pub fn fault_counts(&self) -> &[u64; LANES] {
        &self.counts
    }

    /// Draws one cell per `out` slot for all lanes: bit `L` of `out[i]` is
    /// lane `L`'s fault flag for cell `i` under mantissa `threshold` (see
    /// [`fault_threshold`]); idle lanes are masked to zero. Batched so lane
    /// RNG state stays in registers across the sweep (the survival
    /// engine's whole-structure sampling pass).
    pub fn fill_fault_words(&mut self, threshold: u64, out: &mut [u64]) {
        self.rngs.fill_ge(threshold, out, &mut self.counts);
        self.silence_idle_lanes(out);
    }

    /// [`BlockSampler::fill_fault_words`] that also keeps every draw:
    /// lane `L`'s 53-bit mantissa for cell `i` lands in
    /// `store[i * LANES + L]` (idle lanes included), written in the same
    /// pass as the fault words. This is the common-random-number form a
    /// grid sweep thresholds at its later survival probabilities:
    /// `mantissa >= fault_threshold(p)` is the fault test
    /// ([`dmfb_graph::words::pack_ge_per_lane`] packs a store of them).
    ///
    /// # Panics
    ///
    /// Panics if `store` is shorter than `out.len() * LANES` words.
    pub fn fill_fault_words_store(&mut self, threshold: u64, out: &mut [u64], store: &mut [u64]) {
        self.rngs
            .fill_ge_store(threshold, out, store, &mut self.counts);
        self.silence_idle_lanes(out);
    }

    /// Clears the idle lanes' bits and counts after a fill.
    fn silence_idle_lanes(&mut self, out: &mut [u64]) {
        if self.lanes < LANES {
            let live = self.live_mask();
            for word in out.iter_mut() {
                *word &= live;
            }
            self.counts[self.lanes..].fill(0);
        }
    }

    /// Transposed exact-fault-count sampling: stages, for every live
    /// lane, exactly `faults` distinct faulty cells out of `n` into
    /// `out` (bit `L` of `out[cell]` = cell faulty in lane `L`),
    /// byte-identical to the scalar partial Fisher–Yates
    /// `for i in 0..faults { j = rng.gen_range(i..n); perm.swap(i, j) }`
    /// run per lane on `StdRng::seed_from_u64(seeds[L])`. Every live
    /// lane's fault count is `faults`.
    ///
    /// The scalar path pays an `O(n)` identity-permutation reset per lane
    /// before drawing. This variant first draws every swap index for all
    /// lanes lock-step from the lane generators (one [`LaneRngs`] step per
    /// fault — the vendored `gen_range` consumes exactly one `next_u64`
    /// via a widening multiply, replayed here verbatim). It then runs each
    /// lane's swaps on one generation-stamped slot table, where an
    /// unstamped slot reads as the identity, so a `k`-fault block costs
    /// `O(k · lanes)`.
    ///
    /// # Panics
    ///
    /// Panics if `faults > n` or `out` is shorter than `n` words.
    pub fn exact_fault_words(&mut self, n: usize, faults: usize, out: &mut [u64]) {
        assert!(faults <= n, "cannot pick {faults} faults out of {n} cells");
        assert!(out.len() >= n, "fault-word buffer shorter than {n} cells");
        out[..n].fill(0);
        self.counts = [0; LANES];
        if faults == 0 || self.lanes == 0 {
            return;
        }
        self.draws.resize(faults * LANES, 0);
        for row in self.draws.chunks_exact_mut(LANES) {
            self.rngs
                .next_raw(row.try_into().expect("draw rows are LANES wide"));
        }
        if self.fy_slot.len() < n {
            self.fy_slot.resize(n, 0);
            self.fy_stamp.resize(n, 0);
        }
        for lane in 0..self.lanes {
            self.fy_generation = self.fy_generation.wrapping_add(1);
            if self.fy_generation == 0 {
                // Wrapped: stamps from 2^32 lanes ago must not alias.
                self.fy_stamp.fill(0);
                self.fy_generation = 1;
            }
            let (slot, stamp, generation) =
                (&mut self.fy_slot, &mut self.fy_stamp, self.fy_generation);
            let perm = |slot: &[u32], stamp: &[u32], x: usize| {
                if stamp[x] == generation {
                    slot[x]
                } else {
                    x as u32
                }
            };
            for (i, row) in self.draws.chunks_exact(LANES).enumerate() {
                // Exactly the vendored `gen_range(i..n)` scaling.
                let span = (n - i) as u128;
                let j = i + ((u128::from(row[lane]) * span) >> 64) as usize;
                let selected = perm(slot, stamp, j);
                // `perm.swap(i, j)`: slot `i` is never read again, so only
                // slot `j` needs the displaced value.
                slot[j] = perm(slot, stamp, i);
                stamp[j] = generation;
                out[selected as usize] |= 1u64 << lane;
            }
            self.counts[lane] = faults as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_graph::words::pack_ge_per_lane;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fault_words_replay_scalar_bernoulli() {
        let seeds: Vec<u64> = (0..64).map(|i| 0x5EED + i * 131).collect();
        for &p in &[0.0, 0.5, 0.95, 0.99, 1.0] {
            let mut sampler = BlockSampler::new(&seeds);
            let t = fault_threshold(p);
            let mut scalars: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let mut words = [0u64; 40];
            sampler.fill_fault_words(t, &mut words);
            for (cell, &word) in words.iter().enumerate() {
                for (lane, rng) in scalars.iter_mut().enumerate() {
                    let u: f64 = rng.gen();
                    assert_eq!(
                        (word >> lane) & 1 == 1,
                        u >= p,
                        "p={p} cell={cell} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_fault_words_matches_per_cell_calls() {
        let seeds: Vec<u64> = (0..23).map(|i| 0xFA_57 + i * 13).collect();
        for &p in &[0.0, 0.9, 0.99, 1.0] {
            let t = fault_threshold(p);
            let mut batched = BlockSampler::new(&seeds);
            let mut reference = BlockSampler::new(&seeds);
            let mut words = vec![u64::MAX; 150];
            batched.fill_fault_words(t, &mut words);
            for (cell, &word) in words.iter().enumerate() {
                let mut one = [u64::MAX];
                reference.fill_fault_words(t, &mut one);
                assert_eq!(word, one[0], "p={p} cell={cell}");
            }
            // Idle lanes masked, and both samplers' lanes still in step.
            for &word in &words {
                assert_eq!(word & !batched.live_mask(), 0);
            }
            let (mut a, mut b) = ([0u64; 1], [0u64; 1]);
            let (mut sa, mut sb) = ([0u64; LANES], [0u64; LANES]);
            batched.fill_fault_words_store(t, &mut a, &mut sa);
            reference.fill_fault_words_store(t, &mut b, &mut sb);
            assert_eq!(sa[..seeds.len()], sb[..seeds.len()], "p={p}");
            assert_eq!(a, b, "p={p}");
        }
    }

    #[test]
    fn stored_mantissas_rethreshold_to_the_same_fault_words() {
        // The store variant emits the plain sampler's words, and
        // re-thresholding its store at any threshold equals sampling
        // afresh at that threshold with the same seeds, counts included.
        let seeds: Vec<u64> = (0..41).map(|i| 0x57_0E + i * 29).collect();
        let cells = 30;
        let mut stored = BlockSampler::new(&seeds);
        let mut words = vec![u64::MAX; cells];
        let mut store = vec![0u64; cells * LANES];
        stored.fill_fault_words_store(fault_threshold(0.9), &mut words, &mut store);
        for &p in &[0.0, 0.5, 0.9, 0.99, 1.0] {
            let t = fault_threshold(p);
            let mut fresh = BlockSampler::new(&seeds);
            let mut expected = vec![0u64; cells];
            fresh.fill_fault_words(t, &mut expected);
            let mut packed = vec![0u64; cells];
            let mut counts = [0u64; LANES];
            pack_ge_per_lane(
                &store,
                &[t; LANES],
                fresh.live_mask(),
                &mut packed,
                &mut counts,
            );
            assert_eq!(packed, expected, "p={p}");
            assert_eq!(&counts, fresh.fault_counts(), "p={p}");
            if p == 0.9 {
                assert_eq!(words, expected);
                assert_eq!(stored.fault_counts(), fresh.fault_counts());
            }
        }
    }

    /// Each lane's popcount over `words`.
    fn popcounts(words: &[u64]) -> [u64; LANES] {
        std::array::from_fn(|lane| words.iter().map(|&w| (w >> lane) & 1).sum())
    }

    #[test]
    fn fault_counts_are_lane_popcounts() {
        // Every staging path leaves each lane's popcount over the words it
        // staged as that lane's count, idle lanes zero.
        for live in [1usize, 23, 64] {
            let seeds: Vec<u64> = (0..live as u64).map(|i| 0xC0_17 + i * 37).collect();
            let mut sampler = BlockSampler::new(&seeds);
            let mut words = vec![0u64; 90];
            let mut store = vec![0u64; words.len() * LANES];
            for &p in &[0.0, 0.5, 0.97, 1.0] {
                sampler.fill_fault_words(fault_threshold(p), &mut words);
                assert_eq!(
                    sampler.fault_counts(),
                    &popcounts(&words),
                    "live={live} p={p}"
                );
                sampler.fill_fault_words_store(fault_threshold(p), &mut words, &mut store);
                assert_eq!(
                    sampler.fault_counts(),
                    &popcounts(&words),
                    "live={live} p={p}"
                );
            }
            for faults in [0usize, 1, 9, 90] {
                sampler.exact_fault_words(words.len(), faults, &mut words);
                assert_eq!(
                    sampler.fault_counts(),
                    &popcounts(&words),
                    "live={live} k={faults}"
                );
            }
        }
    }

    #[test]
    fn idle_lanes_stay_silent() {
        let mut sampler = BlockSampler::new(&[1, 2, 3]);
        assert_eq!(sampler.live_mask(), 0b111);
        // p = 0 faults every live lane; idle lanes must still read zero.
        let mut word = [0u64; 1];
        sampler.fill_fault_words(fault_threshold(0.0), &mut word);
        assert_eq!(word, [0b111]);
    }

    #[test]
    fn reseed_resets_all_lanes() {
        let mut sampler = BlockSampler::new(&[5, 6]);
        let t = fault_threshold(0.5);
        let (mut first, mut again) = ([0u64; 8], [0u64; 8]);
        sampler.fill_fault_words(t, &mut first);
        sampler.reseed(&[5, 6]);
        sampler.fill_fault_words(t, &mut again);
        assert_eq!(again, first);
    }

    /// The scalar reference: partial Fisher–Yates over a dense identity
    /// permutation, exactly as the per-trial exact-count path draws it.
    fn scalar_fault_set(seed: u64, n: usize, faults: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut picked = Vec::new();
        for i in 0..faults {
            let j = rng.gen_range(i..n);
            perm.swap(i, j);
            picked.push(perm[i] as usize);
        }
        picked
    }

    #[test]
    fn exact_fault_words_replay_scalar_fisher_yates() {
        let seeds: Vec<u64> = (0..64).map(|i| 0xE0_57 + i * 977).collect();
        let mut sampler = BlockSampler::new(&[]);
        for &(n, faults) in &[
            (1usize, 0usize),
            (1, 1),
            (7, 3),
            (40, 1),
            (40, 40),
            (313, 11),
            (40, 39),
        ] {
            // One sampler across every case, so stale slot stamps from
            // earlier lanes and calls are exercised too.
            sampler.reseed(&seeds);
            let mut words = vec![u64::MAX; n];
            sampler.exact_fault_words(n, faults, &mut words);
            for (lane, &seed) in seeds.iter().enumerate() {
                let mut expected = vec![false; n];
                for cell in scalar_fault_set(seed, n, faults) {
                    expected[cell] = true;
                }
                for (cell, &word) in words.iter().enumerate() {
                    assert_eq!(
                        (word >> lane) & 1 == 1,
                        expected[cell],
                        "n={n} faults={faults} lane={lane} cell={cell}"
                    );
                }
            }
            // Every lane holds exactly `faults` distinct faulty cells.
            let total: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(total as usize, faults * seeds.len());
        }
    }

    #[test]
    fn exact_fault_words_mask_idle_lanes_and_clear_stale_bits() {
        let mut sampler = BlockSampler::new(&[9, 10]);
        let mut words = vec![u64::MAX; 12];
        sampler.exact_fault_words(12, 2, &mut words);
        for &word in &words {
            assert_eq!(
                word & !sampler.live_mask(),
                0,
                "idle lanes must stay silent"
            );
        }
        // Zero faults still clears the staging buffer.
        let mut stale = vec![u64::MAX; 5];
        sampler.exact_fault_words(5, 0, &mut stale);
        assert!(stale.iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn exact_fault_words_reject_overfull() {
        let mut sampler = BlockSampler::new(&[1]);
        let mut words = vec![0u64; 4];
        sampler.exact_fault_words(4, 5, &mut words);
    }
}
