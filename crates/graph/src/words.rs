//! Word-level SWAR kernels for the bit-parallel Monte-Carlo trial engine.
//!
//! The simulator's transposed ("bit-sliced") hot path evaluates **64
//! independent trials per `u64` word**: bit `L` of a cell's fault word is
//! the fault flag of trial lane `L` at that cell. This module provides the
//! lane-level primitives the higher layers build on:
//!
//! * [`LaneRngs`] — 64 xoshiro256++ generators in structure-of-arrays
//!   layout, each lane seeded exactly like
//!   `StdRng::seed_from_u64(seed)`, so a lane's draw stream is
//!   *bit-identical* to the scalar engine's per-trial RNG. On x86-64
//!   hosts with AVX2 the fault-word sampler and both re-threshold
//!   kernels run as runtime-dispatched four-lane SIMD. The sampler is
//!   one lane-major kernel, so RNG state stays in registers across a
//!   whole cell pass: [`LaneRngs::fill_ge`] emits the fault words, and
//!   [`LaneRngs::fill_ge_store`] also keeps every mantissa for later
//!   re-thresholding, against one threshold per column ([`pack_ge`]) or
//!   one threshold per lane across the whole store
//!   ([`pack_ge_per_lane`]). Every other host takes the portable SWAR
//!   loops, and both paths are held to the same scalar-stream tests.
//! * [`mantissa_threshold`] — converts a survival probability into an
//!   integer mantissa threshold such that the scalar comparison
//!   `rng.gen::<f64>() >= p` and the word comparison
//!   `(next_u64() >> 11) >= mantissa_threshold(p)` decide identically,
//!   with no floating-point in the sampling loop.
//! * [`LaneCounter`] — a bit-sliced saturating counter (one ripple-carry
//!   adder per fault word) that counts per-lane fault populations and
//!   answers "which lanes have at most `k` faults?" as a single mask,
//!   the classifier tier's Hall-bound retirement test.
//!
//! # Example
//!
//! ```
//! use dmfb_graph::words::{mantissa_threshold, LaneRngs, LANES};
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! // Lane 3 of the SoA generator replays scalar seed 1234 exactly.
//! let seeds: Vec<u64> = (0..8).map(|i| 1000 + i as u64 * 78).collect();
//! let mut lanes = LaneRngs::new(&seeds);
//! let mut scalar = StdRng::seed_from_u64(seeds[3]);
//! let mut word = [0u64; 1];
//! lanes.fill_ge(mantissa_threshold(0.95), &mut word);
//! let u: f64 = scalar.gen();
//! assert_eq!((word[0] >> 3) & 1 == 1, u >= 0.95);
//! assert_eq!(LANES, 64);
//! ```

/// Number of trial lanes packed into one `u64` word.
pub const LANES: usize = 64;

/// AVX2 fast paths for the lane kernels, runtime-dispatched so the same
/// binary stays correct on any x86-64. Every function here computes
/// *bit-identically* the same result as its portable counterpart — the
/// stream tests in this module run against whichever path the host
/// selects, so the byte-identity contract covers both.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // `std::arch` intrinsics are `unsafe fn`; every call
                      // site is guarded by the `available()` runtime check.
mod x86 {
    use super::LANES;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_movemask_pd, _mm256_or_si256, _mm256_set1_epi64x, _mm256_slli_epi64,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Whether the AVX2 paths may be called (cached by `std_detect`).
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Batched fused sampler: one `(next_u64() >> 11) >= threshold` fault
    /// word per `out` slot, loop-inverted — lanes outer, cells inner — so
    /// each lane group's RNG state stays in registers across the whole
    /// cell sweep. The comparison is a signed vector compare — safe
    /// because 53-bit mantissas and thresholds (`<= 2^53`) never reach the
    /// sign bit — and the pack is a sign-bit `movemask` per four lanes.
    /// Two 4-lane groups advance per pass to keep both dependency chains
    /// in flight. With `STORE`, each draw's mantissa is also written to
    /// `store[cell * LANES + lane]` while it is still in a register.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 is available and, with `STORE`, that
    /// `store` holds at least `out.len() * LANES` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fill_ge<const STORE: bool>(
        s0: &mut [u64; LANES],
        s1: &mut [u64; LANES],
        s2: &mut [u64; LANES],
        s3: &mut [u64; LANES],
        threshold: u64,
        out: &mut [u64],
        store: &mut [u64],
    ) {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn step_reg(v: &mut [__m256i; 4]) -> __m256i {
            // result = rotl(s0 + s3, 23) + s0 (rotates spelled shl|shr —
            // AVX2 shift immediates are const generics, so no shared rotl
            // helper).
            let sum = _mm256_add_epi64(v[0], v[3]);
            let rot = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
            let result = _mm256_add_epi64(rot, v[0]);
            let t = _mm256_slli_epi64::<17>(v[1]);
            v[2] = _mm256_xor_si256(v[2], v[0]);
            v[3] = _mm256_xor_si256(v[3], v[1]);
            v[1] = _mm256_xor_si256(v[1], v[2]);
            v[0] = _mm256_xor_si256(v[0], v[3]);
            v[2] = _mm256_xor_si256(v[2], t);
            v[3] = _mm256_or_si256(_mm256_slli_epi64::<45>(v[3]), _mm256_srli_epi64::<19>(v[3]));
            result
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load4(
            s0: &[u64; LANES],
            s1: &[u64; LANES],
            s2: &[u64; LANES],
            s3: &[u64; LANES],
            lane: usize,
        ) -> [__m256i; 4] {
            [
                _mm256_loadu_si256(s0.as_ptr().add(lane).cast::<__m256i>()),
                _mm256_loadu_si256(s1.as_ptr().add(lane).cast::<__m256i>()),
                _mm256_loadu_si256(s2.as_ptr().add(lane).cast::<__m256i>()),
                _mm256_loadu_si256(s3.as_ptr().add(lane).cast::<__m256i>()),
            ]
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store4(
            v: &[__m256i; 4],
            s0: &mut [u64; LANES],
            s1: &mut [u64; LANES],
            s2: &mut [u64; LANES],
            s3: &mut [u64; LANES],
            lane: usize,
        ) {
            _mm256_storeu_si256(s0.as_mut_ptr().add(lane).cast::<__m256i>(), v[0]);
            _mm256_storeu_si256(s1.as_mut_ptr().add(lane).cast::<__m256i>(), v[1]);
            _mm256_storeu_si256(s2.as_mut_ptr().add(lane).cast::<__m256i>(), v[2]);
            _mm256_storeu_si256(s3.as_mut_ptr().add(lane).cast::<__m256i>(), v[3]);
        }
        let t = _mm256_set1_epi64x(threshold as i64);
        for w in out.iter_mut() {
            *w = 0;
        }
        let mut lane = 0;
        while lane < LANES {
            let mut a = load4(s0, s1, s2, s3, lane);
            let mut b = load4(s0, s1, s2, s3, lane + 4);
            for (cell, w) in out.iter_mut().enumerate() {
                let ra = _mm256_srli_epi64::<11>(step_reg(&mut a));
                let rb = _mm256_srli_epi64::<11>(step_reg(&mut b));
                if STORE {
                    let column = store.as_mut_ptr().add(cell * LANES + lane);
                    _mm256_storeu_si256(column.cast::<__m256i>(), ra);
                    _mm256_storeu_si256(column.add(4).cast::<__m256i>(), rb);
                }
                let lt_a = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, ra)));
                let lt_b = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, rb)));
                let bits = u64::from(!lt_a as u32 & 0xF) | (u64::from(!lt_b as u32 & 0xF) << 4);
                *w |= bits << lane;
            }
            store4(&a, s0, s1, s2, s3, lane);
            store4(&b, s0, s1, s2, s3, lane + 4);
            lane += 8;
        }
    }

    /// Vectorised re-threshold of a stored mantissa column (the grid-mode
    /// kernel behind [`super::pack_ge`]).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_ge(mantissas: &[u64; LANES], threshold: u64) -> u64 {
        let t = _mm256_set1_epi64x(threshold as i64);
        let mut word = 0u64;
        let mut lane = 0;
        while lane < LANES {
            let m = _mm256_loadu_si256(mantissas.as_ptr().add(lane).cast::<__m256i>());
            let lt = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, m)));
            word |= u64::from(!lt as u32 & 0xF) << lane;
            lane += 4;
        }
        word
    }

    /// Vectorised per-lane re-threshold of a whole mantissa store (the
    /// kernel behind [`super::pack_ge_per_lane`]).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2 is available and that `store` holds at least
    /// `out.len() * LANES` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_ge_per_lane(
        store: &[u64],
        thresholds: &[u64; LANES],
        active: u64,
        out: &mut [u64],
    ) {
        for (cell, w) in out.iter_mut().enumerate() {
            let column = store.as_ptr().add(cell * LANES);
            let mut word = 0u64;
            let mut lane = 0;
            while lane < LANES {
                let m = _mm256_loadu_si256(column.add(lane).cast::<__m256i>());
                let t = _mm256_loadu_si256(thresholds.as_ptr().add(lane).cast::<__m256i>());
                let lt = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, m)));
                word |= u64::from(!lt as u32 & 0xF) << lane;
                lane += 4;
            }
            *w = word & active;
        }
    }
}

/// `2^53` as an `f64`: the scale factor of the vendored `rand`'s
/// 53-bit-mantissa uniform construction.
const MANTISSA_SCALE: f64 = 9_007_199_254_740_992.0;

/// All-ones mask over the first `lanes` lanes.
///
/// # Panics
///
/// Panics if `lanes > 64`.
#[must_use]
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= LANES, "at most {LANES} lanes per word");
    if lanes == LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Converts a survival probability into the integer mantissa threshold of
/// the equivalent fault test.
///
/// The scalar engine draws `u = (next_u64() >> 11) as f64 / 2^53` and
/// declares a cell faulty iff `u >= p`. Both the mantissa-to-float
/// conversion and the power-of-two scaling are exact in `f64`, so with
/// `m = next_u64() >> 11`:
///
/// `u >= p  ⟺  m >= p · 2^53  ⟺  m >= ⌈p · 2^53⌉`
///
/// (`p · 2^53` is itself exact — scaling by a power of two never rounds).
/// The returned threshold therefore reproduces the scalar verdict
/// *bit-for-bit* using only integer compares. Edge cases: `p = 0` maps to
/// `0` (every draw faults, matching `u >= 0`); `p = 1` maps to `2^53`,
/// which no 53-bit mantissa reaches (matching `u < 1`).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
#[must_use]
pub fn mantissa_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p={p} out of range [0,1]");
    (p * MANTISSA_SCALE).ceil() as u64
}

/// Packs the per-lane comparisons `mantissas[L] >= threshold` into one
/// fault word (lane `L` at bit `L`) — re-thresholding a stored transposed
/// draw, the kernel behind common-random-number grid sweeps where one
/// mantissa column is tested against many survival probabilities.
#[must_use]
#[allow(unsafe_code)] // AVX2 dispatch; guarded by `x86::available()`.
pub fn pack_ge(mantissas: &[u64; LANES], threshold: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: AVX2 presence just checked.
        return unsafe { x86::pack_ge(mantissas, threshold) };
    }
    pack_ge_portable(mantissas, threshold)
}

/// Portable SWAR body of [`pack_ge`] — also the cross-check reference the
/// tests hold the dispatched paths to.
fn pack_ge_portable(mantissas: &[u64; LANES], threshold: u64) -> u64 {
    let mut bits = [0u64; LANES];
    for lane in 0..LANES {
        bits[lane] = u64::from(mantissas[lane] >= threshold);
    }
    // Four independent accumulators keep the pack off one serial OR chain.
    let (mut w0, mut w1, mut w2, mut w3) = (0u64, 0u64, 0u64, 0u64);
    let mut lane = 0;
    while lane < LANES {
        w0 |= bits[lane] << lane;
        w1 |= bits[lane + 1] << (lane + 1);
        w2 |= bits[lane + 2] << (lane + 2);
        w3 |= bits[lane + 3] << (lane + 3);
        lane += 4;
    }
    (w0 | w1) | (w2 | w3)
}

/// Re-thresholds a whole mantissa store with one threshold per lane: bit
/// `L` of `out[i]` is set iff lane `L` is in `active` and
/// `store[i * LANES + L] >= thresholds[L]`. This is the per-lane form of
/// [`pack_ge`] that lets every lane of a common-random-number grid probe
/// its own survival probability in the same pass.
///
/// `store` holds 53-bit mantissas as [`LaneRngs::fill_ge_store`] writes
/// them; thresholds come from [`mantissa_threshold`].
///
/// # Panics
///
/// Panics if `store` is shorter than `out.len() * LANES` words or a
/// threshold exceeds `2^53`.
#[allow(unsafe_code)] // AVX2 dispatch; guarded by `x86::available()`.
pub fn pack_ge_per_lane(store: &[u64], thresholds: &[u64; LANES], active: u64, out: &mut [u64]) {
    assert_store_len(store, out.len());
    // The AVX2 compare is signed; thresholds up to 2^53 keep it exact.
    assert!(
        thresholds.iter().all(|&t| t <= 1 << 53),
        "mantissa thresholds must not exceed 2^53"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: AVX2 presence just checked, and the store length was
        // asserted above.
        unsafe { x86::pack_ge_per_lane(store, thresholds, active, out) };
        return;
    }
    pack_ge_per_lane_portable(store, thresholds, active, out);
}

/// Portable body of [`pack_ge_per_lane`] — also the reference the tests
/// hold the dispatched path to.
fn pack_ge_per_lane_portable(
    store: &[u64],
    thresholds: &[u64; LANES],
    active: u64,
    out: &mut [u64],
) {
    for (word, column) in out.iter_mut().zip(store.chunks_exact(LANES)) {
        let mut bits = 0u64;
        for (lane, (&m, &t)) in column.iter().zip(thresholds).enumerate() {
            bits |= u64::from(m >= t) << lane;
        }
        *word = bits & active;
    }
}

/// Asserts that a mantissa store holds `cells × LANES` words.
fn assert_store_len(store: &[u64], cells: usize) {
    assert!(
        store.len() >= cells * LANES,
        "mantissa store holds {} words, need {cells} cells x {LANES} lanes",
        store.len()
    );
}

/// SplitMix64 stream used by `StdRng::seed_from_u64` to expand one `u64`
/// into the four xoshiro256++ state words (kept in lock-step with the
/// vendored `rand`).
fn splitmix_expand(seed: u64) -> [u64; 4] {
    let mut state = seed;
    let mut out = [0u64; 4];
    for word in &mut out {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *word = z ^ (z >> 31);
    }
    // xoshiro must not start from the all-zero state (mirrors
    // `StdRng::from_seed`; unreachable from SplitMix64 in practice).
    if out == [0; 4] {
        out = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
    }
    out
}

/// 64 xoshiro256++ generators in structure-of-arrays layout — one lane
/// per Monte-Carlo trial.
///
/// Each lane `L` seeded with `seeds[L]` produces exactly the `next_u64`
/// stream of `StdRng::seed_from_u64(seeds[L])`, which is what makes the
/// block engine byte-identical to the scalar engine: a trial's verdict
/// depends only on its seed, never on which lane or block evaluated it.
/// Lanes beyond the seed slice are seeded with `0` and advanced in
/// lock-step; callers mask their output with [`lane_mask`].
#[derive(Clone, Debug)]
pub struct LaneRngs {
    s0: [u64; LANES],
    s1: [u64; LANES],
    s2: [u64; LANES],
    s3: [u64; LANES],
}

impl LaneRngs {
    /// Creates 64 lanes, seeding lane `L` from `seeds[L]` exactly like
    /// `StdRng::seed_from_u64`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 seeds are supplied.
    #[must_use]
    pub fn new(seeds: &[u64]) -> Self {
        let mut rngs = LaneRngs {
            s0: [0; LANES],
            s1: [0; LANES],
            s2: [0; LANES],
            s3: [0; LANES],
        };
        rngs.reseed(seeds);
        rngs
    }

    /// Reseeds all lanes in place (lane `L` from `seeds[L]`, the rest
    /// from seed `0`), reusing the state arrays across blocks.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 seeds are supplied.
    pub fn reseed(&mut self, seeds: &[u64]) {
        assert!(seeds.len() <= LANES, "at most {LANES} lanes per word");
        for lane in 0..LANES {
            let seed = seeds.get(lane).copied().unwrap_or(0);
            let s = splitmix_expand(seed);
            self.s0[lane] = s[0];
            self.s1[lane] = s[1];
            self.s2[lane] = s[2];
            self.s3[lane] = s[3];
        }
    }

    /// Advances every lane one step and writes the raw `next_u64` outputs
    /// to `out` (lane `L` at `out[L]`).
    pub fn next_raw(&mut self, out: &mut [u64; LANES]) {
        self.step(out);
    }

    /// Draws one fault word per `out` slot, one cell per slot in slice
    /// order: every lane advances one step per slot and bit `L` of the
    /// word is lane `L`'s `(next_u64() >> 11) >= threshold` — one
    /// transposed Bernoulli draw across 64 trials. On AVX2 hosts the loop
    /// runs lane-major so each lane group's RNG state lives in registers
    /// across the entire cell sweep.
    pub fn fill_ge(&mut self, threshold: u64, out: &mut [u64]) {
        self.fill::<false>(threshold, out, &mut []);
    }

    /// [`LaneRngs::fill_ge`] that also keeps every draw: the 53-bit
    /// mantissa of lane `L` at cell `i` lands in `store[i * LANES + L]`,
    /// so a common-random-number grid can re-threshold the same draws
    /// with [`pack_ge`] later. Words, store and the lane state after the
    /// pass are those of `out.len()` one-cell draws.
    ///
    /// # Panics
    ///
    /// Panics if `store` is shorter than `out.len() * LANES` words.
    pub fn fill_ge_store(&mut self, threshold: u64, out: &mut [u64], store: &mut [u64]) {
        self.fill::<true>(threshold, out, store);
    }

    /// The one sampling dispatch: the AVX2 lane-major kernel when the host
    /// has it, the portable per-cell loop otherwise. `store` is touched
    /// only with `STORE`.
    #[allow(unsafe_code)] // AVX2 dispatch; guarded by `x86::available()`.
    fn fill<const STORE: bool>(&mut self, threshold: u64, out: &mut [u64], store: &mut [u64]) {
        if STORE {
            assert_store_len(store, out.len());
        }
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            // SAFETY: AVX2 presence just checked, and with `STORE` the
            // store length was asserted above.
            unsafe {
                x86::fill_ge::<STORE>(
                    &mut self.s0,
                    &mut self.s1,
                    &mut self.s2,
                    &mut self.s3,
                    threshold,
                    out,
                    store,
                );
            }
            return;
        }
        self.fill_portable::<STORE>(threshold, out, store);
    }

    /// Portable body of [`LaneRngs::fill`]: one lock-step draw per cell,
    /// shifted to mantissas, optionally stored, then packed — also the
    /// reference the tests hold the AVX2 kernel to.
    fn fill_portable<const STORE: bool>(
        &mut self,
        threshold: u64,
        out: &mut [u64],
        store: &mut [u64],
    ) {
        let mut mantissas = [0u64; LANES];
        for (cell, word) in out.iter_mut().enumerate() {
            self.step(&mut mantissas);
            for m in mantissas.iter_mut() {
                *m >>= 11;
            }
            if STORE {
                store[cell * LANES..(cell + 1) * LANES].copy_from_slice(&mantissas);
            }
            *word = pack_ge_portable(&mantissas, threshold);
        }
    }

    /// One lock-step xoshiro256++ update of all 64 lanes; `out[L]` gets
    /// lane `L`'s `next_u64` result.
    fn step(&mut self, out: &mut [u64; LANES]) {
        for (lane, slot) in out.iter_mut().enumerate() {
            let result = self.s0[lane]
                .wrapping_add(self.s3[lane])
                .rotate_left(23)
                .wrapping_add(self.s0[lane]);
            let t = self.s1[lane] << 17;
            self.s2[lane] ^= self.s0[lane];
            self.s3[lane] ^= self.s1[lane];
            self.s1[lane] ^= self.s2[lane];
            self.s0[lane] ^= self.s3[lane];
            self.s2[lane] ^= t;
            self.s3[lane] = self.s3[lane].rotate_left(45);
            *slot = result;
        }
    }
}

/// Bit-sliced saturating lane counter: counts, per lane, how many fault
/// words had that lane's bit set.
///
/// `planes[i]` holds bit `i` of every lane's count; adding a fault word
/// is one ripple-carry pass, and the Hall-bound test "count ≤ k" is a
/// word-parallel comparator — no per-lane extraction anywhere. Counts
/// that exceed the constructed capacity saturate into an overflow plane,
/// which simply keeps those lanes out of every `≤ k` mask.
///
/// # Example
///
/// ```
/// use dmfb_graph::words::LaneCounter;
///
/// let mut counter = LaneCounter::new(3);
/// counter.add(0b1011); // lanes 0, 1, 3 fault once
/// counter.add(0b0011); // lanes 0, 1 fault again
/// assert_eq!(counter.le_mask(1) & 0xF, 0b1100); // lanes 2 (0) and 3 (1)
/// assert_eq!(counter.le_mask(2) & 0xF, 0b1111);
/// ```
#[derive(Clone, Debug)]
pub struct LaneCounter {
    /// `planes[i]` = bit `i` of each lane's count, lanes across the word.
    planes: [u64; 8],
    /// Lanes whose count exceeded `2^bits − 1`.
    overflow: u64,
    /// Number of live planes: counts up to `2^bits − 1` are exact.
    bits: usize,
}

impl LaneCounter {
    /// Creates a counter that can distinguish counts `0 ..= max_count`
    /// exactly (anything larger saturates).
    ///
    /// # Panics
    ///
    /// Panics if `max_count > 255`.
    #[must_use]
    pub fn new(max_count: usize) -> Self {
        assert!(max_count <= 255, "lane counter capacity is 255");
        let bits = (usize::BITS - max_count.leading_zeros()).max(1) as usize;
        LaneCounter {
            planes: [0; 8],
            overflow: 0,
            bits,
        }
    }

    /// Resets every lane's count to zero.
    pub fn reset(&mut self) {
        self.planes = [0; 8];
        self.overflow = 0;
    }

    /// Adds one to every lane whose bit is set in `word` (one ripple-carry
    /// pass over the bit planes).
    pub fn add(&mut self, word: u64) {
        let mut carry = word;
        for plane in self.planes.iter_mut().take(self.bits) {
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
        self.overflow |= carry;
    }

    /// Mask of lanes whose count is at most `bound` (word-parallel
    /// comparator over the bit planes; overflowed lanes never qualify).
    ///
    /// # Panics
    ///
    /// Panics if `bound` exceeds the constructed capacity.
    #[must_use]
    pub fn le_mask(&self, bound: u64) -> u64 {
        assert!(
            bound < 1u64 << self.bits,
            "bound {bound} exceeds counter capacity"
        );
        let mut greater = self.overflow;
        let mut equal = u64::MAX;
        for i in (0..self.bits).rev() {
            let bound_bit = if (bound >> i) & 1 == 1 { u64::MAX } else { 0 };
            greater |= equal & self.planes[i] & !bound_bit;
            equal &= !(self.planes[i] ^ bound_bit);
        }
        !greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn lanes_replay_scalar_streams_exactly() {
        let seeds: Vec<u64> = (0..64).map(|i| 0xABCD_0000 + i * 977).collect();
        let mut lanes = LaneRngs::new(&seeds);
        let mut scalars: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut raw = [0u64; LANES];
        for _ in 0..100 {
            lanes.next_raw(&mut raw);
            for (lane, rng) in scalars.iter_mut().enumerate() {
                assert_eq!(raw[lane], rng.next_u64());
            }
        }
    }

    #[test]
    fn ge_words_match_scalar_float_compare() {
        let seeds: Vec<u64> = (0..37).map(|i| 31 + i * 17).collect();
        for &p in &[0.0, 1e-9, 0.25, 0.5, 0.95, 0.99, 1.0 - 1e-12, 1.0] {
            let mut lanes = LaneRngs::new(&seeds);
            let mut scalars: Vec<StdRng> =
                seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let mut words = [0u64; 50];
            lanes.fill_ge(mantissa_threshold(p), &mut words);
            for &word in &words {
                for (lane, rng) in scalars.iter_mut().enumerate() {
                    let u: f64 = rng.gen();
                    assert_eq!((word >> lane) & 1 == 1, u >= p, "p={p} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn mantissas_match_scalar_uniforms() {
        let seeds = [7u64, 8, 9];
        let mut lanes = LaneRngs::new(&seeds);
        let mut scalars: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let mut words = [0u64; 20];
        let mut store = vec![0u64; words.len() * LANES];
        lanes.fill_ge_store(mantissa_threshold(0.5), &mut words, &mut store);
        for column in store.chunks(LANES) {
            for (lane, rng) in scalars.iter_mut().enumerate() {
                let u: f64 = rng.gen();
                assert_eq!(column[lane] as f64 / MANTISSA_SCALE, u, "lane={lane}");
            }
        }
    }

    #[test]
    fn threshold_edge_cases() {
        assert_eq!(mantissa_threshold(0.0), 0);
        assert_eq!(mantissa_threshold(1.0), 1u64 << 53);
        // Monotone in p.
        let mut last = 0;
        for i in 0..=100 {
            let t = mantissa_threshold(f64::from(i) / 100.0);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn threshold_rejects_out_of_range() {
        let _ = mantissa_threshold(1.5);
    }

    #[test]
    fn counter_counts_and_saturates() {
        let mut counter = LaneCounter::new(5);
        // Lane L's bit is set in round r iff L <= 63 - r, so lane L
        // accumulates min(9, 64 - L) counts.
        for round in 0..9u64 {
            counter.add(u64::MAX >> round);
        }
        // Lane 63 faulted once (round 0 only); lane 55 faulted 9 times
        // (saturates past capacity 5 -> bits 3 -> exact to 7).
        let bit = |bound: u64, lane: u32| (counter.le_mask(bound) >> lane) & 1;
        assert_eq!((bit(0, 63), bit(1, 63)), (0, 1));
        assert_eq!((bit(1, 62), bit(2, 62)), (0, 1));
        assert_eq!(bit(7, 55), 0);
        assert_eq!(counter.le_mask(1) >> 63, 1);
        assert_eq!((counter.le_mask(1) >> 62) & 1, 0);
        assert_eq!((counter.le_mask(5) >> 59) & 1, 1); // 5 faults
        assert_eq!((counter.le_mask(4) >> 59) & 1, 0);
        counter.reset();
        assert_eq!(counter.le_mask(0), u64::MAX);
    }

    #[test]
    fn counter_matches_popcount_reference() {
        let mut counter = LaneCounter::new(12);
        let mut reference = [0u32; LANES];
        let mut rng = StdRng::seed_from_u64(99);
        let mut words = Vec::new();
        for _ in 0..12 {
            let w: u64 = rng.gen();
            counter.add(w);
            words.push(w);
            for (lane, r) in reference.iter_mut().enumerate() {
                *r += ((w >> lane) & 1) as u32;
            }
        }
        for bound in 0..=12u64 {
            let mask = counter.le_mask(bound);
            for (lane, &r) in reference.iter().enumerate() {
                assert_eq!(
                    (mask >> lane) & 1 == 1,
                    u64::from(r) <= bound,
                    "lane={lane} bound={bound}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn counter_rejects_overwide_bound() {
        let _ = LaneCounter::new(3).le_mask(8);
    }

    #[test]
    fn pack_matches_per_lane_compare() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = [0u64; LANES];
        for v in m.iter_mut() {
            *v = rng.next_u64() >> 11;
        }
        for &t in &[0u64, 1, 1 << 30, 1 << 52, 1 << 53] {
            let word = pack_ge(&m, t);
            for (lane, &v) in m.iter().enumerate() {
                assert_eq!((word >> lane) & 1 == 1, v >= t, "t={t} lane={lane}");
            }
        }
    }

    /// The portable per-cell reference for [`LaneRngs::fill_ge`]: one
    /// lock-step draw per cell, shifted to mantissas and packed.
    fn portable_ge(lanes: &mut LaneRngs, threshold: u64) -> u64 {
        let mut m = [0u64; LANES];
        lanes.next_raw(&mut m);
        for v in m.iter_mut() {
            *v >>= 11;
        }
        pack_ge_portable(&m, threshold)
    }

    #[test]
    fn fill_ge_matches_per_cell_draws() {
        // The batched (lane-major) sampler must equal the portable
        // per-cell draw loop word for word and leave the lanes in step,
        // at every sweep length, threshold and starting phase.
        let seeds: Vec<u64> = (0..64).map(|i| 0xF1_11 + i * 71).collect();
        for &cells in &[0usize, 1, 7, 160, 333] {
            for &p in &[0.0, 0.5, 0.99, 1.0] {
                let t = mantissa_threshold(p);
                let mut batched = LaneRngs::new(&seeds);
                let mut reference = LaneRngs::new(&seeds);
                // Offset the phase so non-fresh states are covered too.
                batched.fill_ge(t, &mut [0]);
                let _ = portable_ge(&mut reference, t);
                let mut words = vec![u64::MAX; cells];
                batched.fill_ge(t, &mut words);
                for (cell, &word) in words.iter().enumerate() {
                    assert_eq!(
                        word,
                        portable_ge(&mut reference, t),
                        "cells={cells} p={p} cell={cell}"
                    );
                }
                let (mut a, mut b) = ([0u64; LANES], [0u64; LANES]);
                batched.next_raw(&mut a);
                reference.next_raw(&mut b);
                assert_eq!(a, b, "cells={cells} p={p}");
            }
        }
    }

    #[test]
    fn dispatched_paths_match_portable_reference() {
        // Whatever path `fill_ge`/`fill_ge_store`/`pack_ge` dispatch to
        // (AVX2 or portable), the results must equal the portable scalar
        // pipeline run on an identical clone.
        let seeds: Vec<u64> = (0..64).map(|i| 0x7A57 + i * 101).collect();
        let mut fused = LaneRngs::new(&seeds);
        let mut reference = LaneRngs::new(&seeds);
        let mut m = [0u64; LANES];
        let mut raw = [0u64; LANES];
        for round in 0..200u64 {
            let t = (round * 0x4000_0000_0000) % ((1 << 53) + 1);
            let mut word = [0u64; 1];
            fused.fill_ge(t, &mut word);
            reference.next_raw(&mut raw);
            for (dst, &r) in m.iter_mut().zip(&raw) {
                *dst = r >> 11;
            }
            assert_eq!(word[0], pack_ge_portable(&m, t), "round={round}");
            assert_eq!(pack_ge(&m, t), pack_ge_portable(&m, t), "round={round}");
            fused.fill_ge_store(t, &mut word, &mut raw);
            reference.next_raw(&mut m);
            for v in m.iter_mut() {
                *v >>= 11;
            }
            assert_eq!(raw, m, "round={round}");
            assert_eq!(word[0], pack_ge_portable(&m, t), "round={round}");
        }
        // The lanes must stay in lock-step too.
        fused.next_raw(&mut raw);
        reference.next_raw(&mut m);
        assert_eq!(raw, m);
    }

    fn state(lanes: &LaneRngs) -> [[u64; LANES]; 4] {
        [lanes.s0, lanes.s1, lanes.s2, lanes.s3]
    }

    #[test]
    fn store_kernel_matches_portable_kernel() {
        // The dispatched kernel (AVX2 on hosts that have it) against the
        // portable loop called directly: same words, same store, same
        // lane state after the pass, and nothing written past the store's
        // `cells * LANES` prefix. The no-store variant must agree too.
        const SENTINEL: u64 = u64::MAX; // no 53-bit mantissa reaches it
        for &live in &[1usize, 63, 64] {
            let seeds: Vec<u64> = (0..live as u64).map(|i| 0x5_7023 + i * 193).collect();
            for &cells in &[0usize, 1, 7, 824] {
                for &t in &[0u64, mantissa_threshold(0.5), 1 << 53] {
                    let case = format!("live={live} cells={cells} t={t}");
                    let mut dispatched = LaneRngs::new(&seeds);
                    let mut portable = LaneRngs::new(&seeds);
                    // Start from a non-fresh phase.
                    dispatched.fill_ge(t, &mut [0; 3]);
                    portable.fill_portable::<false>(t, &mut [0; 3], &mut []);
                    let mut plain = dispatched.clone();
                    let (mut words, mut expected) = (vec![7u64; cells], vec![9u64; cells]);
                    let mut store = vec![SENTINEL; cells * LANES + 8];
                    let mut expected_store = store.clone();
                    dispatched.fill_ge_store(t, &mut words, &mut store);
                    portable.fill_portable::<true>(t, &mut expected, &mut expected_store);
                    assert_eq!(words, expected, "{case}");
                    assert_eq!(store, expected_store, "{case}");
                    assert!(store[cells * LANES..].iter().all(|&m| m == SENTINEL));
                    assert_eq!(state(&dispatched), state(&portable), "{case}");
                    let mut plain_words = vec![5u64; cells];
                    plain.fill_ge(t, &mut plain_words);
                    assert_eq!(plain_words, expected, "{case}");
                    assert_eq!(state(&plain), state(&portable), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mantissa store holds")]
    fn short_store_is_rejected() {
        let mut lanes = LaneRngs::new(&[1]);
        lanes.fill_ge_store(0, &mut [0; 2], &mut [0; LANES + 3]);
    }

    #[test]
    fn per_lane_kernel_matches_portable() {
        // The dispatched per-lane kernel (AVX2 on hosts that have it)
        // against the portable body called directly, on the same store:
        // uniform, alternating and random per-lane thresholds, under empty,
        // single, full and random active masks, and nothing written past
        // `out`.
        let mut rng = StdRng::seed_from_u64(0x9E7_1A4E);
        let full = 1u64 << 53;
        let alternating: [u64; LANES] = std::array::from_fn(|l| if l % 2 == 0 { 0 } else { full });
        let random: [u64; LANES] = std::array::from_fn(|_| rng.gen_range(0..=full));
        let threshold_sets = [[0u64; LANES], [full; LANES], alternating, random];
        let masks = [0u64, 1, u64::MAX, rng.gen()];
        for &cells in &[0usize, 1, 7, 824] {
            let store: Vec<u64> = (0..cells * LANES).map(|_| rng.next_u64() >> 11).collect();
            for (t_idx, thresholds) in threshold_sets.iter().enumerate() {
                for &active in &masks {
                    let case = format!("cells={cells} thresholds={t_idx} active={active:#x}");
                    let mut got = vec![7u64; cells + 1];
                    let mut expected = vec![7u64; cells + 1];
                    pack_ge_per_lane(&store, thresholds, active, &mut got[..cells]);
                    pack_ge_per_lane_portable(&store, thresholds, active, &mut expected[..cells]);
                    assert_eq!(got, expected, "{case}");
                    assert_eq!(got[cells], 7, "{case}");
                    for (cell, &word) in got[..cells].iter().enumerate() {
                        for (lane, &t) in thresholds.iter().enumerate() {
                            let bit = (active >> lane) & 1 == 1 && store[cell * LANES + lane] >= t;
                            assert_eq!((word >> lane) & 1 == 1, bit, "{case} cell={cell}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mantissa store holds")]
    fn per_lane_short_store_is_rejected() {
        pack_ge_per_lane(&[0; LANES + 3], &[0; LANES], u64::MAX, &mut [0; 2]);
    }

    #[test]
    fn lane_mask_widths() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(64), u64::MAX);
    }
}
