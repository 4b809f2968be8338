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
//!   *bit-identical* to the scalar engine's per-trial RNG. The fault-word
//!   sampler is one lane-major kernel, so RNG state stays in registers
//!   across a whole cell pass: [`LaneRngs::fill_ge`] emits the fault
//!   words, and [`LaneRngs::fill_ge_store`] also keeps every mantissa for
//!   a later re-threshold with one threshold per lane
//!   ([`pack_ge_per_lane`]).
//! * **Per-lane fault counts.** Both kernels also return how many of the
//!   words they wrote have each lane's bit set, summed in registers as the
//!   words are packed. The classifier's Hall tier ("at most `k` faults")
//!   is then one 64-lane compare, with no second pass over the words.
//! * **Runtime dispatch.** Each kernel picks its body once per call: on
//!   x86-64 hosts with AVX-512F, 32 lanes per pass in four `zmm`
//!   registers, with native 64-bit rotates and unsigned compares into mask
//!   registers; with AVX2, lane-major passes of eight lanes; everywhere
//!   else, the portable loops. Every body the host can run is held to the
//!   portable reference by the tests, so all of them produce the same
//!   words, mantissas, lane state and counts.
//! * [`mantissa_threshold`] — converts a survival probability into an
//!   integer mantissa threshold such that the scalar comparison
//!   `rng.gen::<f64>() >= p` and the word comparison
//!   `(next_u64() >> 11) >= mantissa_threshold(p)` decide identically,
//!   with no floating-point in the sampling loop.
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
//! let mut counts = [0u64; LANES];
//! lanes.fill_ge(mantissa_threshold(0.95), &mut word, &mut counts);
//! let u: f64 = scalar.gen();
//! assert_eq!((word[0] >> 3) & 1 == 1, u >= 0.95);
//! assert_eq!(counts[3], u64::from(u >= 0.95));
//! assert_eq!(LANES, 64);
//! ```

/// Number of trial lanes packed into one `u64` word.
pub const LANES: usize = 64;

/// The four xoshiro256++ state words of every lane, structure-of-arrays:
/// `state[i][L]` is state word `i` of lane `L`.
type LaneState = [[u64; LANES]; 4];

/// SIMD bodies of the lane kernels, runtime-dispatched so the same binary
/// stays correct on any x86-64. Every function here computes
/// *bit-identically* the same result as its portable counterpart, and the
/// tests in this module call each body the host supports against it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // `std::arch` intrinsics are `unsafe fn`; every call
                      // site asserts `Body::runs_here` first.
mod x86 {
    /// Four-lane AVX2 bodies. Both run lane-major — lane groups outer,
    /// cells inner — so each group's state and fault counters stay in
    /// registers across the whole cell sweep. Compares are signed, which
    /// is exact because 53-bit mantissas and thresholds (`<= 2^53`) never
    /// reach the sign bit; the pack is a sign-bit `movemask` per four
    /// lanes.
    pub mod avx2 {
        use super::super::{LaneState, LANES};
        use std::arch::x86_64::{
            __m256i, _mm256_add_epi64, _mm256_andnot_si256, _mm256_castsi256_pd,
            _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_movemask_pd, _mm256_or_si256,
            _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_setzero_si256, _mm256_slli_epi64,
            _mm256_srli_epi64, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_xor_si256,
        };

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(words: *const u64) -> __m256i {
            _mm256_loadu_si256(words.cast::<__m256i>())
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store(words: *mut u64, v: __m256i) {
            _mm256_storeu_si256(words.cast::<__m256i>(), v);
        }

        /// Lanes `lane..lane + 4` of the lane state.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load_state(state: &LaneState, lane: usize) -> [__m256i; 4] {
            [
                load(state[0].as_ptr().add(lane)),
                load(state[1].as_ptr().add(lane)),
                load(state[2].as_ptr().add(lane)),
                load(state[3].as_ptr().add(lane)),
            ]
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store_state(v: &[__m256i; 4], state: &mut LaneState, lane: usize) {
            for (words, &word) in state.iter_mut().zip(v) {
                store(words.as_mut_ptr().add(lane), word);
            }
        }

        /// One xoshiro256++ step of four lanes held in registers.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn step(v: &mut [__m256i; 4]) -> __m256i {
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

        /// Sign-bit pack of four compare lanes into bits `0..4`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn pack(mask: __m256i) -> u64 {
            u64::from(_mm256_movemask_pd(_mm256_castsi256_pd(mask)) as u32)
        }

        /// Fused sampler body: one `(next_u64() >> 11) >= threshold` fault
        /// word per `out` slot and each lane's fault count, two 4-lane
        /// groups per pass to keep both dependency chains in flight. With
        /// `STORE`, each draw's mantissa is also written to
        /// `store[cell * LANES + lane]` while it is still in a register.
        ///
        /// # Safety
        ///
        /// Caller guarantees AVX2 is available and, with `STORE`, that
        /// `store` holds at least `out.len() * LANES` words.
        #[target_feature(enable = "avx2")]
        pub unsafe fn fill_ge<const STORE: bool>(
            state: &mut LaneState,
            threshold: u64,
            out: &mut [u64],
            store_to: &mut [u64],
            counts: &mut [u64; LANES],
        ) {
            let t = _mm256_set1_epi64x(threshold as i64);
            // A counter starts at the cell count and adds each compare's
            // all-ones "below threshold" lanes (−1): what is left is the
            // lane's fault count.
            let cells = _mm256_set1_epi64x(out.len() as i64);
            out.fill(0);
            for lane in (0..LANES).step_by(8) {
                let mut a = load_state(state, lane);
                let mut b = load_state(state, lane + 4);
                let (mut count_a, mut count_b) = (cells, cells);
                for (cell, w) in out.iter_mut().enumerate() {
                    let ra = _mm256_srli_epi64::<11>(step(&mut a));
                    let rb = _mm256_srli_epi64::<11>(step(&mut b));
                    if STORE {
                        let column = store_to.as_mut_ptr().add(cell * LANES + lane);
                        store(column, ra);
                        store(column.add(4), rb);
                    }
                    let below_a = _mm256_cmpgt_epi64(t, ra);
                    let below_b = _mm256_cmpgt_epi64(t, rb);
                    count_a = _mm256_add_epi64(count_a, below_a);
                    count_b = _mm256_add_epi64(count_b, below_b);
                    let bits = (!pack(below_a) & 0xF) | ((!pack(below_b) & 0xF) << 4);
                    *w |= bits << lane;
                }
                store_state(&a, state, lane);
                store_state(&b, state, lane + 4);
                store(counts.as_mut_ptr().add(lane), count_a);
                store(counts.as_mut_ptr().add(lane + 4), count_b);
            }
        }

        /// All-ones in each of the four lanes whose bit is set in `bits`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn lane_flags(bits: u64) -> __m256i {
            let flag = |i: u32| -(((bits >> i) & 1) as i64);
            _mm256_set_epi64x(flag(3), flag(2), flag(1), flag(0))
        }

        /// Per-lane re-threshold body: a lane-major pass of eight lanes —
        /// one cache line of each mantissa column — with the thresholds,
        /// the active flags and the fault counters in registers.
        ///
        /// # Safety
        ///
        /// Caller guarantees AVX2 is available and that `store` holds at
        /// least `out.len() * LANES` words.
        #[target_feature(enable = "avx2")]
        pub unsafe fn pack_ge_per_lane(
            store_from: &[u64],
            thresholds: &[u64; LANES],
            active: u64,
            out: &mut [u64],
            counts: &mut [u64; LANES],
        ) {
            out.fill(0);
            for lane in (0..LANES).step_by(8) {
                let ta = load(thresholds.as_ptr().add(lane));
                let tb = load(thresholds.as_ptr().add(lane + 4));
                let active_a = lane_flags(active >> lane);
                let active_b = lane_flags(active >> (lane + 4));
                let (mut count_a, mut count_b) = (_mm256_setzero_si256(), _mm256_setzero_si256());
                for (cell, w) in out.iter_mut().enumerate() {
                    let column = store_from.as_ptr().add(cell * LANES + lane);
                    let fault_a =
                        _mm256_andnot_si256(_mm256_cmpgt_epi64(ta, load(column)), active_a);
                    let fault_b =
                        _mm256_andnot_si256(_mm256_cmpgt_epi64(tb, load(column.add(4))), active_b);
                    count_a = _mm256_sub_epi64(count_a, fault_a);
                    count_b = _mm256_sub_epi64(count_b, fault_b);
                    *w |= (pack(fault_a) | (pack(fault_b) << 4)) << lane;
                }
                store(counts.as_mut_ptr().add(lane), count_a);
                store(counts.as_mut_ptr().add(lane + 4), count_b);
            }
        }
    }

    /// Eight-lane AVX-512F bodies: native 64-bit rotates, unsigned
    /// compares straight into mask registers, and fault counters bumped
    /// by a masked add.
    pub mod avx512 {
        use super::super::{LaneState, LANES};
        use std::arch::x86_64::{
            __m512i, _mm512_add_epi64, _mm512_cmpge_epu64_mask, _mm512_loadu_si512,
            _mm512_mask_add_epi64, _mm512_mask_cmpge_epu64_mask, _mm512_rol_epi64,
            _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64,
            _mm512_storeu_si512, _mm512_xor_si512,
        };

        /// Lanes per pass of the sampler: four `zmm` groups of eight.
        const PASS: usize = 32;

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(words: *const u64) -> __m512i {
            _mm512_loadu_si512(words.cast::<__m512i>())
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(words: *mut u64, v: __m512i) {
            _mm512_storeu_si512(words.cast::<__m512i>(), v);
        }

        /// Lanes `lane..lane + 8` of the lane state.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load_state(state: &LaneState, lane: usize) -> [__m512i; 4] {
            [
                load(state[0].as_ptr().add(lane)),
                load(state[1].as_ptr().add(lane)),
                load(state[2].as_ptr().add(lane)),
                load(state[3].as_ptr().add(lane)),
            ]
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store_state(v: &[__m512i; 4], state: &mut LaneState, lane: usize) {
            for (words, &word) in state.iter_mut().zip(v) {
                store(words.as_mut_ptr().add(lane), word);
            }
        }

        /// One xoshiro256++ step of eight lanes held in registers.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn step(v: &mut [__m512i; 4]) -> __m512i {
            let result =
                _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(v[0], v[3])), v[0]);
            let t = _mm512_slli_epi64::<17>(v[1]);
            v[2] = _mm512_xor_si512(v[2], v[0]);
            v[3] = _mm512_xor_si512(v[3], v[1]);
            v[1] = _mm512_xor_si512(v[1], v[2]);
            v[0] = _mm512_xor_si512(v[0], v[3]);
            v[2] = _mm512_xor_si512(v[2], t);
            v[3] = _mm512_rol_epi64::<45>(v[3]);
            result
        }

        /// Fused sampler body: 32 lanes per pass, two passes per call.
        /// Each cell draws four 8-lane groups, compares each against the
        /// threshold into a mask, bumps the faulty lanes' counters with a
        /// masked add and ORs the four masks into the cell's word. With
        /// `STORE`, each mantissa is also written to
        /// `store[cell * LANES + lane]`.
        ///
        /// # Safety
        ///
        /// Caller guarantees AVX-512F is available and, with `STORE`, that
        /// `store` holds at least `out.len() * LANES` words.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn fill_ge<const STORE: bool>(
            state: &mut LaneState,
            threshold: u64,
            out: &mut [u64],
            store_to: &mut [u64],
            counts: &mut [u64; LANES],
        ) {
            let t = _mm512_set1_epi64(threshold as i64);
            let one = _mm512_set1_epi64(1);
            out.fill(0);
            for lane in (0..LANES).step_by(PASS) {
                let mut v0 = load_state(state, lane);
                let mut v1 = load_state(state, lane + 8);
                let mut v2 = load_state(state, lane + 16);
                let mut v3 = load_state(state, lane + 24);
                let mut c = [_mm512_setzero_si512(); 4];
                for (cell, w) in out.iter_mut().enumerate() {
                    let draws = [
                        _mm512_srli_epi64::<11>(step(&mut v0)),
                        _mm512_srli_epi64::<11>(step(&mut v1)),
                        _mm512_srli_epi64::<11>(step(&mut v2)),
                        _mm512_srli_epi64::<11>(step(&mut v3)),
                    ];
                    let mut bits = 0u64;
                    for (g, (&m, c)) in draws.iter().zip(c.iter_mut()).enumerate() {
                        if STORE {
                            store(store_to.as_mut_ptr().add(cell * LANES + lane + 8 * g), m);
                        }
                        let fault = _mm512_cmpge_epu64_mask(m, t);
                        *c = _mm512_mask_add_epi64(*c, fault, *c, one);
                        bits |= u64::from(fault) << (8 * g);
                    }
                    *w |= bits << lane;
                }
                store_state(&v0, state, lane);
                store_state(&v1, state, lane + 8);
                store_state(&v2, state, lane + 16);
                store_state(&v3, state, lane + 24);
                for (g, &c) in c.iter().enumerate() {
                    store(counts.as_mut_ptr().add(lane + 8 * g), c);
                }
            }
        }

        /// Per-lane re-threshold body: one cell-major pass, all 64 lanes'
        /// thresholds and counters held in sixteen `zmm` registers, and
        /// the active lanes applied as the compare's write mask.
        ///
        /// # Safety
        ///
        /// Caller guarantees AVX-512F is available and that `store` holds
        /// at least `out.len() * LANES` words.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn pack_ge_per_lane(
            store_from: &[u64],
            thresholds: &[u64; LANES],
            active: u64,
            out: &mut [u64],
            counts: &mut [u64; LANES],
        ) {
            let mut t = [_mm512_setzero_si512(); LANES / 8];
            for (g, t) in t.iter_mut().enumerate() {
                *t = load(thresholds.as_ptr().add(8 * g));
            }
            let one = _mm512_set1_epi64(1);
            let mut c = [_mm512_setzero_si512(); LANES / 8];
            for (cell, w) in out.iter_mut().enumerate() {
                let column = store_from.as_ptr().add(cell * LANES);
                let mut bits = 0u64;
                for (g, (&t, c)) in t.iter().zip(c.iter_mut()).enumerate() {
                    let live = (active >> (8 * g)) as u8;
                    let fault = _mm512_mask_cmpge_epu64_mask(live, load(column.add(8 * g)), t);
                    *c = _mm512_mask_add_epi64(*c, fault, *c, one);
                    bits |= u64::from(fault) << (8 * g);
                }
                *w = bits;
            }
            for (g, &c) in c.iter().enumerate() {
                store(counts.as_mut_ptr().add(8 * g), c);
            }
        }
    }
}

/// The body a lane kernel runs. [`fill_with`] and
/// [`pack_ge_per_lane_with`] assert [`Body::runs_here`] before they call
/// a SIMD body, so no `Body` value can reach an instruction the host
/// lacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Every body this build has, slowest first.
const BODIES: &[Body] = &[
    Body::Portable,
    #[cfg(target_arch = "x86_64")]
    Body::Avx2,
    #[cfg(target_arch = "x86_64")]
    Body::Avx512,
];

impl Body {
    /// Whether this host has the body's instruction set (cached by
    /// `std_detect`).
    fn runs_here(self) -> bool {
        match self {
            Body::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The fastest body this host runs: AVX-512F, then AVX2, then the
    /// portable loops.
    fn best() -> Body {
        *BODIES
            .iter()
            .rev()
            .find(|body| body.runs_here())
            .expect("the portable body runs everywhere")
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

/// Re-thresholds a whole mantissa store with one threshold per lane: bit
/// `L` of `out[i]` is set iff lane `L` is in `active` and
/// `store[i * LANES + L] >= thresholds[L]`, and `counts[L]` becomes the
/// number of words with bit `L` set. This lets every lane of a
/// common-random-number grid probe its own survival probability in the
/// same pass.
///
/// `store` holds 53-bit mantissas as [`LaneRngs::fill_ge_store`] writes
/// them; thresholds come from [`mantissa_threshold`].
///
/// # Panics
///
/// Panics if `store` is shorter than `out.len() * LANES` words or a
/// threshold exceeds `2^53`.
pub fn pack_ge_per_lane(
    store: &[u64],
    thresholds: &[u64; LANES],
    active: u64,
    out: &mut [u64],
    counts: &mut [u64; LANES],
) {
    pack_ge_per_lane_with(Body::best(), store, thresholds, active, out, counts);
}

/// [`pack_ge_per_lane`] on a chosen body: its checks and its one
/// dispatch.
#[allow(unsafe_code)] // SIMD dispatch, after the checks its bodies need.
fn pack_ge_per_lane_with(
    body: Body,
    store: &[u64],
    thresholds: &[u64; LANES],
    active: u64,
    out: &mut [u64],
    counts: &mut [u64; LANES],
) {
    assert!(body.runs_here(), "{body:?} does not run on this host");
    assert_store_len(store, out.len());
    thresholds.iter().copied().for_each(assert_threshold);
    match body {
        Body::Portable => pack_ge_per_lane_portable(store, thresholds, active, out, counts),
        // SAFETY: the host runs the body, and the store holds
        // `out.len()` columns (both asserted above).
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => unsafe {
            x86::avx2::pack_ge_per_lane(store, thresholds, active, out, counts)
        },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe {
            x86::avx512::pack_ge_per_lane(store, thresholds, active, out, counts);
        },
    }
}

/// Portable body of [`pack_ge_per_lane`] — also the reference the tests
/// hold the SIMD bodies to.
fn pack_ge_per_lane_portable(
    store: &[u64],
    thresholds: &[u64; LANES],
    active: u64,
    out: &mut [u64],
    counts: &mut [u64; LANES],
) {
    *counts = [0; LANES];
    for (word, column) in out.iter_mut().zip(store.chunks_exact(LANES)) {
        let column: &[u64; LANES] = column.try_into().expect("column is LANES wide");
        *word = pack_ge_counted(column, thresholds, active, counts);
    }
}

/// Packs `mantissas[L] >= thresholds[L]` over the lanes in `active` into
/// one word and adds each set bit to its lane's count.
fn pack_ge_counted(
    mantissas: &[u64; LANES],
    thresholds: &[u64; LANES],
    active: u64,
    counts: &mut [u64; LANES],
) -> u64 {
    let mut word = 0u64;
    for (lane, ((&m, &t), count)) in mantissas.iter().zip(thresholds).zip(counts).enumerate() {
        let fault = u64::from(m >= t) & (active >> lane);
        *count += fault;
        word |= fault << lane;
    }
    word
}

/// Asserts that a mantissa threshold is at most `2^53`, as
/// [`mantissa_threshold`] makes it: the AVX2 compare is signed, and only
/// thresholds below `2^63` keep it equal to the unsigned compare of the
/// other bodies.
fn assert_threshold(threshold: u64) {
    assert!(
        threshold <= 1 << 53,
        "mantissa thresholds must not exceed 2^53"
    );
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
    state: LaneState,
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
            state: [[0; LANES]; 4],
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
            let s = splitmix_expand(seeds.get(lane).copied().unwrap_or(0));
            for (words, word) in self.state.iter_mut().zip(s) {
                words[lane] = word;
            }
        }
    }

    /// Advances every lane one step and writes the raw `next_u64` outputs
    /// to `out` (lane `L` at `out[L]`).
    pub fn next_raw(&mut self, out: &mut [u64; LANES]) {
        step(&mut self.state, out);
    }

    /// Draws one fault word per `out` slot, one cell per slot in slice
    /// order: every lane advances one step per slot and bit `L` of the
    /// word is lane `L`'s `(next_u64() >> 11) >= threshold` — one
    /// transposed Bernoulli draw across 64 trials. `counts[L]` becomes the
    /// number of words with bit `L` set. The SIMD bodies run lane-major,
    /// so each lane group's RNG state and counter live in registers across
    /// the entire cell sweep.
    pub fn fill_ge(&mut self, threshold: u64, out: &mut [u64], counts: &mut [u64; LANES]) {
        fill_with::<false>(
            Body::best(),
            &mut self.state,
            threshold,
            out,
            &mut [],
            counts,
        );
    }

    /// [`LaneRngs::fill_ge`] that also keeps every draw: the 53-bit
    /// mantissa of lane `L` at cell `i` lands in `store[i * LANES + L]`,
    /// so a common-random-number grid can re-threshold the same draws
    /// with [`pack_ge_per_lane`] later. Words, counts, store and the lane
    /// state after the pass are those of `out.len()` one-cell draws.
    ///
    /// # Panics
    ///
    /// Panics if `store` is shorter than `out.len() * LANES` words.
    pub fn fill_ge_store(
        &mut self,
        threshold: u64,
        out: &mut [u64],
        store: &mut [u64],
        counts: &mut [u64; LANES],
    ) {
        fill_with::<true>(Body::best(), &mut self.state, threshold, out, store, counts);
    }
}

/// The fused sampler on a chosen body: its checks and its one dispatch.
/// `store` is touched only with `STORE`.
#[allow(unsafe_code)] // SIMD dispatch, after the checks its bodies need.
fn fill_with<const STORE: bool>(
    body: Body,
    state: &mut LaneState,
    threshold: u64,
    out: &mut [u64],
    store: &mut [u64],
    counts: &mut [u64; LANES],
) {
    assert!(body.runs_here(), "{body:?} does not run on this host");
    if STORE {
        assert_store_len(store, out.len());
    }
    assert_threshold(threshold);
    match body {
        Body::Portable => fill_portable::<STORE>(state, threshold, out, store, counts),
        // SAFETY: the host runs the body, and with `STORE` the store
        // holds `out.len()` columns (both asserted above).
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => unsafe { x86::avx2::fill_ge::<STORE>(state, threshold, out, store, counts) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe {
            x86::avx512::fill_ge::<STORE>(state, threshold, out, store, counts);
        },
    }
}

/// Portable body of the fused sampler: one lock-step draw per cell,
/// shifted to mantissas, optionally stored, then packed and counted —
/// also the reference the tests hold the SIMD bodies to.
fn fill_portable<const STORE: bool>(
    state: &mut LaneState,
    threshold: u64,
    out: &mut [u64],
    store: &mut [u64],
    counts: &mut [u64; LANES],
) {
    *counts = [0; LANES];
    let thresholds = [threshold; LANES];
    let mut mantissas = [0u64; LANES];
    for (cell, word) in out.iter_mut().enumerate() {
        step(state, &mut mantissas);
        for m in mantissas.iter_mut() {
            *m >>= 11;
        }
        if STORE {
            store[cell * LANES..(cell + 1) * LANES].copy_from_slice(&mantissas);
        }
        *word = pack_ge_counted(&mantissas, &thresholds, u64::MAX, counts);
    }
}

/// One lock-step xoshiro256++ update of all 64 lanes; `out[L]` gets
/// lane `L`'s `next_u64` result.
fn step(state: &mut LaneState, out: &mut [u64; LANES]) {
    let [s0, s1, s2, s3] = state;
    for (lane, slot) in out.iter_mut().enumerate() {
        let result = s0[lane]
            .wrapping_add(s3[lane])
            .rotate_left(23)
            .wrapping_add(s0[lane]);
        let t = s1[lane] << 17;
        s2[lane] ^= s0[lane];
        s3[lane] ^= s1[lane];
        s1[lane] ^= s2[lane];
        s0[lane] ^= s3[lane];
        s2[lane] ^= t;
        s3[lane] = s3[lane].rotate_left(45);
        *slot = result;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Every body this host runs, portable first.
    fn supported() -> Vec<Body> {
        BODIES
            .iter()
            .copied()
            .filter(|body| body.runs_here())
            .collect()
    }

    /// Each lane's popcount over `words`.
    fn popcounts(words: &[u64]) -> [u64; LANES] {
        std::array::from_fn(|lane| words.iter().map(|&w| (w >> lane) & 1).sum())
    }

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
            lanes.fill_ge(mantissa_threshold(p), &mut words, &mut [0; LANES]);
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
        lanes.fill_ge_store(
            mantissa_threshold(0.5),
            &mut words,
            &mut store,
            &mut [0; LANES],
        );
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
    fn counter_matches_popcount_reference() {
        // Every body's per-lane fault counts equal the lanes' popcounts
        // over the words the same call wrote, for the sampler with and
        // without a store and for the per-lane re-threshold.
        let seeds: Vec<u64> = (0..64).map(|i| 0xC0_47 + i * 59).collect();
        let mut rng = StdRng::seed_from_u64(99);
        let thresholds: [u64; LANES] = std::array::from_fn(|_| rng.gen_range(0..=1u64 << 53));
        for body in supported() {
            for &cells in &[0usize, 1, 12, 300] {
                for &t in &[
                    0u64,
                    mantissa_threshold(0.5),
                    mantissa_threshold(0.99),
                    1 << 53,
                ] {
                    let case = format!("{body:?} cells={cells} t={t}");
                    let mut lanes = LaneRngs::new(&seeds);
                    let mut words = vec![0u64; cells];
                    let mut store = vec![0u64; cells * LANES];
                    let mut counts = [7u64; LANES];
                    fill_with::<false>(body, &mut lanes.state, t, &mut words, &mut [], &mut counts);
                    assert_eq!(counts, popcounts(&words), "{case}");
                    counts = [7; LANES];
                    fill_with::<true>(
                        body,
                        &mut lanes.state,
                        t,
                        &mut words,
                        &mut store,
                        &mut counts,
                    );
                    assert_eq!(counts, popcounts(&words), "{case} store");
                    let active = rng.gen();
                    counts = [7; LANES];
                    pack_ge_per_lane_with(
                        body,
                        &store,
                        &thresholds,
                        active,
                        &mut words,
                        &mut counts,
                    );
                    assert_eq!(counts, popcounts(&words), "{case} per-lane");
                }
            }
        }
    }

    /// The portable per-cell reference for [`LaneRngs::fill_ge`]: one
    /// lock-step draw per cell, shifted to mantissas and packed.
    fn portable_ge(lanes: &mut LaneRngs, threshold: u64) -> u64 {
        let mut m = [0u64; LANES];
        lanes.next_raw(&mut m);
        m.iter().enumerate().fold(0, |word, (lane, &v)| {
            word | (u64::from(v >> 11 >= threshold) << lane)
        })
    }

    #[test]
    fn fill_ge_matches_per_cell_draws() {
        // The batched (lane-major) sampler must equal the portable
        // per-cell draw loop word for word and leave the lanes in step,
        // at every sweep length, threshold and starting phase.
        let seeds: Vec<u64> = (0..64).map(|i| 0xF1_11 + i * 71).collect();
        let mut counts = [0u64; LANES];
        for &cells in &[0usize, 1, 7, 160, 333] {
            for &p in &[0.0, 0.5, 0.99, 1.0] {
                let t = mantissa_threshold(p);
                let mut batched = LaneRngs::new(&seeds);
                let mut reference = LaneRngs::new(&seeds);
                // Offset the phase so non-fresh states are covered too.
                batched.fill_ge(t, &mut [0], &mut counts);
                let _ = portable_ge(&mut reference, t);
                let mut words = vec![u64::MAX; cells];
                batched.fill_ge(t, &mut words, &mut counts);
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
        // Every body the host runs, with and without a store, against the
        // raw lock-step draws of an identical clone, one cell at a time.
        let seeds: Vec<u64> = (0..64).map(|i| 0x7A57 + i * 101).collect();
        for body in supported() {
            let mut fused = LaneRngs::new(&seeds);
            let mut reference = LaneRngs::new(&seeds);
            let mut m = [0u64; LANES];
            let mut stored = [0u64; LANES];
            let mut counts = [0u64; LANES];
            for round in 0..200u64 {
                let t = (round * 0x4000_0000_0000) % ((1 << 53) + 1);
                let case = format!("{body:?} round={round}");
                let ts = [t; LANES];
                for keep in [false, true] {
                    let mut word = [0u64; 1];
                    if keep {
                        fill_with::<true>(
                            body,
                            &mut fused.state,
                            t,
                            &mut word,
                            &mut stored,
                            &mut counts,
                        );
                    } else {
                        fill_with::<false>(
                            body,
                            &mut fused.state,
                            t,
                            &mut word,
                            &mut [],
                            &mut counts,
                        );
                    }
                    reference.next_raw(&mut m);
                    for v in m.iter_mut() {
                        *v >>= 11;
                    }
                    if keep {
                        assert_eq!(stored, m, "{case}");
                    }
                    let mut expected = [0u64; LANES];
                    assert_eq!(
                        word[0],
                        pack_ge_counted(&m, &ts, u64::MAX, &mut expected),
                        "{case}"
                    );
                    assert_eq!(counts, expected, "{case}");
                }
            }
            // The lanes must stay in lock-step too.
            fused.next_raw(&mut stored);
            reference.next_raw(&mut m);
            assert_eq!(stored, m, "{body:?}");
        }
    }

    #[test]
    fn store_kernel_matches_portable_kernel() {
        // Each body the host runs against the portable body called
        // directly: same words, same store, same counts, same lane state
        // after the pass, and nothing written past the store's
        // `cells * LANES` prefix. The no-store variant must agree too.
        const SENTINEL: u64 = u64::MAX; // no 53-bit mantissa reaches it
        for body in supported() {
            for &live in &[1usize, 63, 64] {
                let seeds: Vec<u64> = (0..live as u64).map(|i| 0x5_7023 + i * 193).collect();
                for &cells in &[0usize, 1, 7, 824] {
                    for &t in &[0u64, mantissa_threshold(0.5), 1 << 53] {
                        let case = format!("{body:?} live={live} cells={cells} t={t}");
                        let mut tested = LaneRngs::new(&seeds);
                        let mut portable = LaneRngs::new(&seeds);
                        let (mut counts, mut expected_counts) = ([1u64; LANES], [2u64; LANES]);
                        // Start from a non-fresh phase.
                        fill_with::<false>(
                            body,
                            &mut tested.state,
                            t,
                            &mut [0; 3],
                            &mut [],
                            &mut counts,
                        );
                        fill_portable::<false>(
                            &mut portable.state,
                            t,
                            &mut [0; 3],
                            &mut [],
                            &mut expected_counts,
                        );
                        assert_eq!(counts, expected_counts, "{case}");
                        let mut plain = tested.clone();
                        let (mut words, mut expected) = (vec![7u64; cells], vec![9u64; cells]);
                        let mut store = vec![SENTINEL; cells * LANES + 8];
                        let mut expected_store = store.clone();
                        fill_with::<true>(
                            body,
                            &mut tested.state,
                            t,
                            &mut words,
                            &mut store,
                            &mut counts,
                        );
                        fill_portable::<true>(
                            &mut portable.state,
                            t,
                            &mut expected,
                            &mut expected_store,
                            &mut expected_counts,
                        );
                        assert_eq!(words, expected, "{case}");
                        assert_eq!(counts, expected_counts, "{case}");
                        assert_eq!(store, expected_store, "{case}");
                        assert!(store[cells * LANES..].iter().all(|&m| m == SENTINEL));
                        assert_eq!(tested.state, portable.state, "{case}");
                        let mut plain_words = vec![5u64; cells];
                        counts = [3; LANES];
                        fill_with::<false>(
                            body,
                            &mut plain.state,
                            t,
                            &mut plain_words,
                            &mut [],
                            &mut counts,
                        );
                        assert_eq!(plain_words, expected, "{case}");
                        assert_eq!(counts, expected_counts, "{case}");
                        assert_eq!(plain.state, portable.state, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed 2^53")]
    fn over_wide_threshold_is_rejected() {
        LaneRngs::new(&[1]).fill_ge((1 << 53) + 1, &mut [0; 2], &mut [0; LANES]);
    }

    #[test]
    #[should_panic(expected = "mantissa store holds")]
    fn short_store_is_rejected() {
        let mut lanes = LaneRngs::new(&[1]);
        lanes.fill_ge_store(0, &mut [0; 2], &mut [0; LANES + 3], &mut [0; LANES]);
    }

    #[test]
    fn per_lane_kernel_matches_portable() {
        // Each body the host runs against the portable body called
        // directly, on the same store: uniform, alternating and random
        // per-lane thresholds, under empty, single, full and random
        // active masks, with the counts checked too and nothing written
        // past `out`.
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
                    let mut expected = vec![7u64; cells + 1];
                    let mut expected_counts = [9u64; LANES];
                    pack_ge_per_lane_portable(
                        &store,
                        thresholds,
                        active,
                        &mut expected[..cells],
                        &mut expected_counts,
                    );
                    for (cell, &word) in expected[..cells].iter().enumerate() {
                        for (lane, &t) in thresholds.iter().enumerate() {
                            let bit = (active >> lane) & 1 == 1 && store[cell * LANES + lane] >= t;
                            assert_eq!((word >> lane) & 1 == 1, bit, "cell={cell}");
                        }
                    }
                    for body in supported() {
                        let case =
                            format!("{body:?} cells={cells} thresholds={t_idx} active={active:#x}");
                        let mut got = vec![7u64; cells + 1];
                        let mut counts = [5u64; LANES];
                        pack_ge_per_lane_with(
                            body,
                            &store,
                            thresholds,
                            active,
                            &mut got[..cells],
                            &mut counts,
                        );
                        assert_eq!(got, expected, "{case}");
                        assert_eq!(counts, expected_counts, "{case}");
                        assert_eq!(got[cells], 7, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mantissa store holds")]
    fn per_lane_short_store_is_rejected() {
        pack_ge_per_lane(
            &[0; LANES + 3],
            &[0; LANES],
            u64::MAX,
            &mut [0; 2],
            &mut [0; LANES],
        );
    }

    #[test]
    fn lane_mask_widths() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(64), u64::MAX);
    }
}
