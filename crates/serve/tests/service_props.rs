//! Property tests for the yield service's two load-bearing promises:
//!
//! 1. **Replies are pure functions of the request.** For any valid
//!    (tier, scheme, estimator, defect model, p, trials, seed), the
//!    reply body served from a warm cache is byte-identical to the one
//!    a cold server builds from scratch, and to the one a
//!    `"cache": "bypass"` request produces. Cache state may only ever
//!    change *when* a reply arrives, never *what* it says.
//!
//! 2. **The LRU cache is a deterministic, capacity-bounded function of
//!    the key sequence.** Against a naive reference model, every
//!    interleaved mix of hits, misses and bypasses must produce the
//!    same hit/miss outcomes, the same MRU ordering, and never more
//!    than `capacity` live entries.

use dmfb_serve::request::parse_yield_request;
use dmfb_serve::{CacheOutcome, LruCache, ServerState};
use proptest::prelude::*;

/// Renders one valid `/v1/yield` request body from independently drawn
/// raw parameters, folding combinations the validator rejects into
/// their nearest valid neighbour (e.g. `raw` tier is hex + naive +
/// Bernoulli only) so every generated body parses.
#[allow(clippy::too_many_arguments)]
fn request_body(
    scheme_sel: usize,
    tier_sel: usize,
    stratified: bool,
    clustered: bool,
    primaries: usize,
    dim: usize,
    p_mil: u32,
    trials: u64,
    seed: u64,
    bypass: bool,
) -> String {
    // Operational fixes the chip shape; raw is hex-only.
    let scheme_sel = if tier_sel == 2 { 0 } else { scheme_sel };
    let tier_sel = if scheme_sel != 0 && tier_sel == 0 {
        1
    } else {
        tier_sel
    };
    // Raw admits neither the stratified estimator nor clustered
    // defects; stratified + clustered is rejected everywhere.
    let stratified = stratified && tier_sel != 0;
    let clustered = clustered && tier_sel != 0 && !stratified;

    let mut fields = vec![format!(
        "\"tier\": \"{}\"",
        ["raw", "reconfigured", "operational"][tier_sel]
    )];
    match scheme_sel {
        0 if tier_sel == 2 => {
            fields.push("\"scheme\": \"hex-dtmb\"".into());
            fields.push("\"assay\": \"ivd-panel\"".into());
        }
        0 => {
            fields.push("\"scheme\": \"hex-dtmb\"".into());
            fields.push("\"design\": \"dtmb26\"".into());
            fields.push(format!("\"primaries\": {primaries}"));
        }
        1 => {
            fields.push("\"scheme\": \"square-dtmb\"".into());
            fields.push("\"pattern\": \"perfect-code\"".into());
            fields.push(format!("\"width\": {dim}"));
            fields.push(format!("\"height\": {dim}"));
        }
        _ => {
            fields.push("\"scheme\": \"spare-rows\"".into());
            fields.push(format!("\"width\": {dim}"));
            fields.push(format!("\"module_rows\": {}", dim.max(2)));
            fields.push("\"spare_rows\": 1".into());
        }
    }
    if stratified {
        fields.push("\"estimator\": \"stratified\"".into());
        fields.push("\"pilot\": 8".into());
    }
    if clustered {
        fields.push("\"defect_model\": \"clustered\"".into());
        fields.push("\"cluster_radius\": 1".into());
    } else {
        // Clustered requests fix the intensity via the cluster
        // parameters; 'p' only applies under Bernoulli.
        fields.push(format!("\"p\": 0.{:03}", 900 + p_mil % 100));
    }
    fields.push(format!("\"trials\": {trials}"));
    fields.push(format!("\"seed\": {seed}"));
    if bypass {
        fields.push("\"cache\": \"bypass\"".into());
    }
    format!("{{{}}}", fields.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Warm-cache replies, cold-build replies and bypass replies are
    /// byte-identical for the same request, and cache outcomes follow
    /// the miss-then-hit protocol.
    #[test]
    fn warm_cold_and_bypass_replies_are_byte_identical(
        scheme_sel in 0usize..3,
        tier_sel in 0usize..3,
        stratified_sel in 0u8..2,
        clustered_sel in 0u8..2,
        primaries in 16usize..96,
        dim in 4usize..10,
        p_mil in 0u32..1000,
        trials in 8u64..40,
        seed in 0u64..(1 << 53),
    ) {
        let (stratified, clustered) = (stratified_sel == 1, clustered_sel == 1);
        let body = request_body(
            scheme_sel, tier_sel, stratified, clustered,
            primaries, dim, p_mil, trials, seed, false,
        );
        let bypass_body = request_body(
            scheme_sel, tier_sel, stratified, clustered,
            primaries, dim, p_mil, trials, seed, true,
        );

        let state = ServerState::new(4, 1);
        let cold = state.handle_yield(body.as_bytes());
        prop_assert_eq!(cold.status, 200, "cold reply: {}", cold.body);
        prop_assert_eq!(cold.cache, Some(CacheOutcome::Miss));

        let warm = state.handle_yield(body.as_bytes());
        prop_assert_eq!(warm.status, 200);
        prop_assert_eq!(warm.cache, Some(CacheOutcome::Hit));
        prop_assert_eq!(&warm.body, &cold.body, "warm reply diverged from cold");

        // A second, freshly built server must agree byte-for-byte —
        // replies depend on the request alone, not on server history.
        let fresh = ServerState::new(4, 1).handle_yield(body.as_bytes());
        prop_assert_eq!(&fresh.body, &cold.body, "fresh rebuild diverged");

        let bypassed = state.handle_yield(bypass_body.as_bytes());
        prop_assert_eq!(bypassed.status, 200);
        prop_assert_eq!(bypassed.cache, Some(CacheOutcome::Bypass));
        prop_assert_eq!(&bypassed.body, &cold.body, "bypass reply diverged");
    }

    /// The engine cache is keyed by the shared `SchemeSpec`-derived
    /// descriptor and nothing else: two valid requests parse to equal
    /// `EngineSpec`s iff the second is served from the first one's
    /// cached engine.
    #[test]
    fn equal_engine_params_iff_shared_cache_entry(
        a_scheme in 0usize..3,
        a_tier in 0usize..3,
        a_primaries in 16usize..96,
        a_dim in 4usize..10,
        b_scheme in 0usize..3,
        b_tier in 0usize..3,
        b_primaries in 16usize..96,
        b_dim in 4usize..10,
        trials in 8u64..24,
        seed in 0u64..(1 << 53),
    ) {
        let body_a = request_body(
            a_scheme, a_tier, false, false, a_primaries, a_dim, 0, trials, seed, false,
        );
        // The second request varies the per-request knobs too (p via
        // p_mil, seed), which must not affect engine identity.
        let body_b = request_body(
            b_scheme, b_tier, false, false, b_primaries, b_dim, 7, trials, seed ^ 1, false,
        );
        let spec_a = parse_yield_request(body_a.as_bytes()).unwrap().engine_spec();
        let spec_b = parse_yield_request(body_b.as_bytes()).unwrap().engine_spec();

        let state = ServerState::new(4, 1);
        let first = state.handle_yield(body_a.as_bytes());
        prop_assert_eq!(first.status, 200, "reply: {}", first.body);
        prop_assert_eq!(first.cache, Some(CacheOutcome::Miss));
        let second = state.handle_yield(body_b.as_bytes());
        prop_assert_eq!(second.status, 200, "reply: {}", second.body);
        let expected = if spec_a == spec_b {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        prop_assert_eq!(second.cache, Some(expected), "specs: {:?} vs {:?}", spec_a, spec_b);
    }

    /// The engine-thread count is a throughput knob, not a result knob:
    /// single-threaded and multi-threaded states serve identical bytes.
    #[test]
    fn thread_count_never_changes_reply_bytes(
        scheme_sel in 0usize..3,
        stratified_sel in 0u8..2,
        primaries in 16usize..96,
        dim in 4usize..10,
        trials in 8u64..40,
        seed in 0u64..(1 << 53),
    ) {
        let body = request_body(
            scheme_sel, 1, stratified_sel == 1, false, primaries, dim, 0, trials, seed, false,
        );
        let single = ServerState::new(1, 1).handle_yield(body.as_bytes());
        let quad = ServerState::new(1, 4).handle_yield(body.as_bytes());
        prop_assert_eq!(single.status, 200, "reply: {}", single.body);
        prop_assert_eq!(single.body, quad.body, "threads changed reply bytes");
    }
}

/// Applies one lookup to a naive MRU-list model of the cache and
/// returns whether it was a hit.
fn model_lookup(model: &mut Vec<String>, key: &str, capacity: usize) -> bool {
    if let Some(pos) = model.iter().position(|k| k == key) {
        let hit = model.remove(pos);
        model.insert(0, hit);
        true
    } else {
        model.insert(0, key.to_string());
        model.truncate(capacity);
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The LRU cache tracks a reference MRU-list model exactly under
    /// interleaved hits, misses and bypasses: same outcomes, same
    /// eviction order, never over capacity.
    #[test]
    fn lru_matches_reference_model(
        capacity in 0usize..6,
        ops in proptest::collection::vec((0usize..6, 0u8..2), 0..48),
    ) {
        let mut cache: LruCache<String> = LruCache::new(capacity);
        let mut model: Vec<String> = Vec::new();
        let (mut hits, mut misses, mut bypasses) = (0u64, 0u64, 0u64);

        for (key_idx, bypass_sel) in ops {
            let bypass = bypass_sel == 1;
            let key = format!("k{key_idx}");
            if bypass {
                cache.note_bypass();
                bypasses += 1;
            } else {
                let expect_hit = model_lookup(&mut model, &key, capacity);
                let (value, outcome) =
                    cache.get_or_insert_with(&key, || key.clone());
                prop_assert_eq!(&*value, &key, "cache returned the wrong value");
                let expected = if expect_hit {
                    hits += 1;
                    CacheOutcome::Hit
                } else {
                    misses += 1;
                    CacheOutcome::Miss
                };
                prop_assert_eq!(outcome, expected, "outcome diverged on '{}'", key);
            }
            prop_assert!(cache.len() <= capacity, "cache exceeded capacity");
            prop_assert_eq!(cache.keys(), model.clone(), "MRU order diverged");
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, misses);
        prop_assert_eq!(stats.bypasses, bypasses);
        // Every miss either grew the cache or evicted the LRU entry;
        // at capacity zero nothing is inserted, so nothing is evicted.
        let expected_evictions = if capacity == 0 {
            0
        } else {
            misses - cache.len() as u64
        };
        prop_assert_eq!(stats.evictions, expected_evictions);
    }
}
