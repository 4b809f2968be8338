//! Cached evaluator engines and deterministic reply rendering.
//!
//! A [`CachedEngine`] is everything expensive about a request: the
//! [`Engine`] its [`YieldRequest::engine_key`] describes, built once by
//! [`Engine::build`] and shared across workers by `Arc` — every estimate
//! entry point takes `&self`, so serving a warm request never clones or
//! rebuilds anything.
//!
//! Reply bodies are rendered with the same hand-rolled JSON writers the
//! bench reports use and carry **no** timing or cache information (that
//! travels in response headers), so an identical request produces a
//! byte-identical body no matter which worker served it, how many
//! threads the engine ran on, or whether the engine came from the cache:
//! the engines themselves are thread-count invariant and every estimate
//! is seeded from the request's master seed through a
//! [`SeedSequence`].

use crate::request::{Tier, YieldRequest};
use dmfb_bench::json::json_number;
use dmfb_core::prelude::{
    Bernoulli, BernoulliEstimate, Biochip, HexDir, MonteCarlo, StratifiedEstimate,
};
use dmfb_core::sim::SeedSequence;
use dmfb_core::{DefectModel, Engine, Estimate, Query};
use rand::Rng;
use std::sync::OnceLock;

/// One precomputed engine, ready to serve any request that maps to its
/// [`YieldRequest::engine_key`].
pub struct CachedEngine {
    engine: Engine,
    /// A hex chip's cells as the raw tier reads them, built on the first
    /// raw request.
    raw: OnceLock<Vec<RawCell>>,
}

impl CachedEngine {
    /// Builds the engine a request's key describes. This is the expensive
    /// path the cache exists to skip: CSR neighbour construction, matching
    /// scratch sizing and (for assay engines) the full router/scheduler
    /// stack.
    #[must_use]
    pub fn build(request: &YieldRequest, threads: usize) -> Self {
        CachedEngine {
            engine: Engine::build(&request.engine_spec(), threads),
            raw: OnceLock::new(),
        }
    }

    /// Runs `request` on this engine and renders the reply body. The
    /// request's master seed never reaches an estimator directly: each
    /// estimate draws its own seed from a [`SeedSequence`] over it, so
    /// multi-estimate tiers stay decorrelated and single-estimate tiers
    /// stay reproducible.
    #[must_use]
    pub fn run(&self, request: &YieldRequest, threads: usize) -> String {
        let q = request.query;
        let results = match (&self.engine, request.tier) {
            (Engine::Hex { chip, .. }, Tier::Raw) => {
                let cells = self.raw.get_or_init(|| raw_cells(chip));
                let raw = raw_yield(cells, &q, threads);
                format!("\"raw\": {}", bernoulli_json(&raw))
            }
            // The request validator admits the raw tier on hex schemes only.
            (_, Tier::Raw) => unreachable!("request validation admitted a non-hex raw tier"),
            (engine, _) => {
                let query = Query {
                    seed: SeedSequence::nth_seed(q.seed, 0),
                    ..q
                };
                let tiers: Vec<String> = engine
                    .estimate(&query)
                    .iter()
                    .map(|(tier, estimate)| {
                        let body = match estimate {
                            Estimate::Naive(e) => bernoulli_json(e),
                            Estimate::Stratified(e) => stratified_json(e),
                        };
                        format!("\"{}\": {body}", tier.label())
                    })
                    .collect();
                tiers.join(", ")
            }
        };
        let p_field = match q.defect_model {
            // No single p parameterises the clustered sampler.
            DefectModel::Clustered(_) => String::new(),
            DefectModel::Bernoulli => format!("\"p\": {}, ", json_number(q.p)),
        };
        format!(
            "{{\"schema\": \"dmfb-serve/1\", \"tier\": \"{}\", \"engine\": \"{}\", \
             \"estimator\": \"{}\", \"defect_model\": \"{}\", {p_field}\"trials\": {}, \
             \"seed\": {}, \"results\": {{{results}}}}}\n",
            request.tier.label(),
            request.engine_key(),
            q.estimator.kind().label(),
            q.defect_model.kind().label(),
            q.trials,
            q.seed,
        )
    }
}

/// One cell of a hex chip, in region order, as the raw tier reads it.
#[derive(Clone, Copy, Debug)]
struct RawCell {
    /// An in-scope primary: its fault fails the raw chip.
    required: bool,
    /// In-region neighbours: the partners a short on this cell can pick.
    neighbours: u8,
}

/// The raw tier's per-cell table of `chip`, in region order.
fn raw_cells(chip: &Biochip) -> Vec<RawCell> {
    let (array, policy) = (chip.array(), chip.policy());
    let region = array.region();
    region
        .iter()
        .map(|cell| RawCell {
            required: array.is_primary(cell) && policy.requires(cell),
            neighbours: HexDir::ALL
                .into_iter()
                .filter(|&d| region.contains(cell.step(d)))
                .count() as u8,
        })
        .collect()
}

/// Raw yield (no reconfiguration) for `query`: the chip is good only
/// when no in-scope primary fails, sampled per trial and seeded
/// independently of the reconfigured estimate.
///
/// Each trial makes the draws of [`Bernoulli`]'s hex `inject` over the
/// region, in cell order: the fault draw, and for a faulty cell the cause
/// roll, which for a short (roll ≥ 0.8) picks one of the cell's
/// in-region neighbours (an isolated cell picks nothing). The first
/// faulty in-scope primary decides the trial, so the rest of its stream
/// is never drawn.
fn raw_yield(cells: &[RawCell], query: &Query, threads: usize) -> BernoulliEstimate {
    let q = Bernoulli::from_survival(query.p).defect_probability();
    let (trials, seed) = (query.trials, SeedSequence::nth_seed(query.seed, 1));
    MonteCarlo::new(trials, seed).run_parallel(threads, |rng| {
        q == 0.0
            || cells.iter().all(|cell| {
                if !rng.gen_bool(q) {
                    return true;
                }
                if cell.required {
                    return false;
                }
                let roll: f64 = rng.gen();
                if roll >= 0.8 && cell.neighbours > 0 {
                    rng.gen_range(0..usize::from(cell.neighbours));
                }
                true
            })
    })
}

/// A [`BernoulliEstimate`] as a JSON object with its Wilson interval.
fn bernoulli_json(e: &BernoulliEstimate) -> String {
    let (lo, hi) = e.wilson95();
    format!(
        "{{\"point\": {}, \"ci_lo\": {}, \"ci_hi\": {}, \"trials\": {}}}",
        json_number(e.point()),
        json_number(lo),
        json_number(hi),
        e.trials()
    )
}

/// A [`StratifiedEstimate`] as a JSON object with its rare-event
/// bookkeeping. A non-finite effective-sample count (an exactly-zero
/// variance) degrades to JSON `null` via [`json_number`].
fn stratified_json(e: &StratifiedEstimate) -> String {
    let (lo, hi) = e.ci95();
    format!(
        "{{\"point\": {}, \"ci_lo\": {}, \"ci_hi\": {}, \"std_error\": {}, \
         \"truncated_mass\": {}, \"trials\": {}, \"strata\": {}, \"effective_samples\": {}}}",
        json_number(e.point),
        json_number(lo),
        json_number(hi),
        json_number(e.std_error()),
        json_number(e.truncated_mass),
        e.trials,
        e.strata.len(),
        json_number(e.effective_trials())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::parse_yield_request;

    fn run(body: &str) -> String {
        let req = parse_yield_request(body.as_bytes()).unwrap();
        CachedEngine::build(&req, 1).run(&req, 1)
    }

    #[test]
    fn replies_parse_and_echo_the_request() {
        let body = run(r#"{"design": "dtmb26", "trials": 200, "seed": 9}"#);
        let value = dmfb_bench::json::JsonValue::parse(&body).unwrap();
        let obj = value.as_object("reply").unwrap();
        let field = |k: &str| dmfb_bench::json::get(obj, k).unwrap();
        assert_eq!(field("schema").as_str("schema").unwrap(), "dmfb-serve/1");
        assert_eq!(field("tier").as_str("tier").unwrap(), "reconfigured");
        assert_eq!(field("seed").as_f64("seed").unwrap(), 9.0);
        let results = field("results").as_object("results").unwrap();
        let point = dmfb_bench::json::get(
            dmfb_bench::json::get(results, "reconfigured")
                .unwrap()
                .as_object("reconfigured")
                .unwrap(),
            "point",
        )
        .unwrap()
        .as_f64("point")
        .unwrap();
        assert!((0.0..=1.0).contains(&point));
    }

    #[test]
    fn identical_requests_are_byte_identical_across_thread_counts() {
        let req =
            parse_yield_request(br#"{"design": "dtmb26", "trials": 300, "seed": 5, "p": 0.97}"#)
                .unwrap();
        let one = CachedEngine::build(&req, 1).run(&req, 1);
        let four = CachedEngine::build(&req, 4).run(&req, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn every_tier_and_estimator_serves() {
        for body in [
            r#"{"tier": "raw", "design": "dtmb16", "trials": 100}"#,
            r#"{"trials": 100, "estimator": "stratified", "pilot": 8}"#,
            r#"{"trials": 50, "defect_model": "clustered"}"#,
            r#"{"scheme": "square-dtmb", "width": 8, "height": 8, "trials": 100}"#,
            r#"{"scheme": "spare-rows", "trials": 100}"#,
            r#"{"tier": "operational", "assay": "ivd-panel", "trials": 50}"#,
            r#"{"tier": "operational", "assay": "ivd-panel", "trials": 50,
                "estimator": "stratified"}"#,
            r#"{"tier": "operational", "assay": "ivd-panel", "trials": 30,
                "defect_model": "clustered", "cluster_mean": 0.5}"#,
        ] {
            let reply = run(body);
            assert!(
                dmfb_bench::json::JsonValue::parse(&reply).is_ok(),
                "unparseable reply for {body}: {reply}"
            );
        }
    }

    /// The raw tier as it ran over B-tree defect maps: a full
    /// `Bernoulli` injection per trial, then a scan for a faulty
    /// in-scope primary.
    fn raw_yield_by_defect_maps(chip: &Biochip, query: &Query) -> BernoulliEstimate {
        use dmfb_core::prelude::InjectionModel;
        let model = Bernoulli::from_survival(query.p);
        let (trials, seed) = (query.trials, SeedSequence::nth_seed(query.seed, 1));
        let (array, policy) = (chip.array(), chip.policy());
        MonteCarlo::new(trials, seed).run_parallel(1, |rng| {
            let defects = model.inject(array.region(), rng);
            let any_relevant = defects
                .faulty_cells()
                .any(|c| array.is_primary(c) && policy.requires(c));
            !any_relevant
        })
    }

    #[test]
    fn raw_tier_matches_the_defect_map_reference() {
        use dmfb_core::prelude::{DtmbKind, ReconfigPolicy};
        use std::collections::BTreeSet;
        let array = DtmbKind::Dtmb16.with_primary_count(40);
        let used: BTreeSet<_> = array.region().iter().step_by(3).collect();
        for policy in [
            ReconfigPolicy::AllPrimaries,
            ReconfigPolicy::UsedCells(used),
        ] {
            let chip = Biochip::from_array(array.clone()).with_policy(policy);
            let cells = raw_cells(&chip);
            for p in [0.0, 0.6, 0.97, 0.999, 1.0] {
                let query = Query {
                    estimator: dmfb_core::Estimator::Naive,
                    defect_model: DefectModel::Bernoulli,
                    p,
                    trials: 300,
                    seed: 5,
                };
                assert_eq!(
                    raw_yield(&cells, &query, 1),
                    raw_yield_by_defect_maps(&chip, &query),
                    "p={p}"
                );
            }
        }
    }

    #[test]
    fn operational_tiers_are_ordered() {
        let body = run(r#"{"tier": "operational", "assay": "ivd-panel", "trials": 150}"#);
        let value = dmfb_bench::json::JsonValue::parse(&body).unwrap();
        let obj = value.as_object("reply").unwrap();
        let results = dmfb_bench::json::get(obj, "results")
            .unwrap()
            .as_object("results")
            .unwrap();
        let point = |k: &str| {
            dmfb_bench::json::get(
                dmfb_bench::json::get(results, k)
                    .unwrap()
                    .as_object(k)
                    .unwrap(),
                "point",
            )
            .unwrap()
            .as_f64("point")
            .unwrap()
        };
        assert!(point("operational") <= point("reconfigured"));
        assert!(point("raw") <= point("reconfigured"));
    }
}
