//! Strict parsing and validation of `/v1/yield` request bodies.
//!
//! The request vocabulary is the CLI's, field for field: the same scheme
//! sub-parameters, estimator and defect-model selections, and the same
//! *foreign-parameter rejection* discipline — a field the selected
//! scheme/estimator/model/tier would silently ignore is refused with a
//! `400` naming the conflict, never dropped. A daemon that ignored stray
//! fields would happily serve numbers under a mislabelled configuration,
//! which is exactly the failure mode the CLI guards rule out.
//!
//! The vocabulary itself — token tables, sub-parameter ownership, and the
//! coherence rules — lives in [`dmfb_core::spec`] and is shared with the
//! CLI and the search enumerator, as are the shape ranges
//! ([`MAX_PRIMARIES`], [`MAX_DIM`]); this module only adds the JSON
//! framing (field-presence tracking, duplicate/unknown-field rejection)
//! and the untrusted-input trial ceiling ([`MAX_TRIALS`]): a CLI user
//! who asks for a billion trials only hurts themselves; a network client
//! must not be able to park a worker with one request.

use dmfb_bench::json::JsonValue;
use dmfb_core::prelude::AssayPanel;
use dmfb_core::spec::{self, DefectModelKind, EstimatorKind, ParamStyle, SchemeKind};
pub use dmfb_core::{DefectModel, Estimator, Query};

/// The shared scheme descriptor (see [`dmfb_core::spec::SchemeSpec`]),
/// under the name this crate has always exported.
pub use dmfb_core::spec::SchemeSpec as SchemeChoice;
/// The shared tier selection (see [`dmfb_core::spec::Tier`]).
pub use dmfb_core::spec::Tier;
pub use dmfb_core::spec::{EngineSpec, MAX_DIM, MAX_PRIMARIES, MAX_TRIALS};

/// Ceiling on a clustered request's estimated spread work, in cell
/// visits: `trials × cluster_mean × ball(cluster_radius)` with the hex
/// ball `ball(r) = 1 + 3r(r + 1)`, which also bounds square spread. Each
/// parameter is capped on its own, but their product is not, so without
/// this one request could hold a worker for days. `1e9` visits is about
/// 10 s of one worker (DTMB(2,6)/2400, mean 10 000, radius 64 runs about
/// 1.1 s per trial on a 2-core x86-64 host).
pub const MAX_CLUSTER_VISITS: f64 = 1e9;

/// Ceiling on a Bernoulli raw or reconfigured request's estimated work, in
/// cell-trials: the array's cells times `trials`, where the cells are the
/// primaries of a hex array, `width × height` of a square array and
/// `width × (module_rows + spare_rows)` of a spare-row array. Each
/// parameter is capped on its own, but their product is not. `5e9`
/// cell-trials is about 8 s of one worker (DTMB(2,6)/65 536 at p = 0.9
/// runs 5 000 trials in about 0.54 s on a 2-core x86-64 host).
pub const MAX_CELL_TRIALS: f64 = 5e9;

/// Ceiling on an operational (assay-tier) request's trials. Each trial
/// runs the matcher and the assay router and scheduler for most faulty
/// chips, so every estimator and defect model is capped alike. `400 000`
/// trials is about 10 s of one worker: the slowest case measured, the
/// metabolic panel near p = 0.9 under either estimator, costs about
/// 22–28 µs per trial at `--threads 1` on a 2-core x86-64 host.
pub const MAX_OPERATIONAL_TRIALS: u32 = 400_000;

/// A validation failure, carrying the HTTP status it maps to (always
/// `400` today, but the type keeps routing and phrasing in one place).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// HTTP status code for the reply.
    pub status: u16,
    /// Human-readable reason, sent back as `{"error": ...}`.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> Self {
        RequestError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Cache directive for this request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Use the engine cache (the default).
    Default,
    /// Rebuild the engine from scratch, leaving the cache untouched. The
    /// reply body is identical either way; only timing differs. The soak
    /// harness uses this as its cold reference.
    Bypass,
}

/// One fully validated `/v1/yield` request.
#[derive(Clone, Debug)]
pub struct YieldRequest {
    /// Requested tier.
    pub tier: Tier,
    /// Requested scheme (ignored shape-wise when `assay` fixes the chip).
    pub scheme: SchemeChoice,
    /// Assay panel (`Some` exactly when `tier` is operational).
    pub assay: Option<AssayPanel>,
    /// The yield question. Its seed is the request's master seed: the
    /// engine seeds each estimate through
    /// [`dmfb_core::sim::SeedSequence`] over it, so replies are
    /// byte-identical for identical requests regardless of worker or
    /// thread count.
    pub query: Query,
    /// Cache directive.
    pub cache: CacheMode,
}

/// The service-level fields `/v1/yield` adds on top of the shared
/// scheme/estimator/model sub-parameter tables.
const TOP_FIELDS: [&str; 9] = [
    "tier",
    "scheme",
    "estimator",
    "defect_model",
    "assay",
    "p",
    "trials",
    "seed",
    "cache",
];

/// Whether `/v1/yield` understands a field; anything else is rejected by
/// name so typos cannot silently select a default. The sub-parameter
/// vocabulary comes straight from [`dmfb_core::spec`], so a scheme
/// parameter added there is automatically known here.
fn is_known_field(key: &str) -> bool {
    TOP_FIELDS.contains(&key)
        || spec::SCHEME_SUBPARAMS.contains(&key)
        || spec::ESTIMATOR_SUBPARAMS.contains(&key)
        || spec::CLUSTER_SUBPARAMS.contains(&key)
}

/// A parsed body with field-presence tracking, so the foreign-parameter
/// guards can distinguish "absent" from "present at its default value"
/// exactly like the CLI's `Options::flag`.
struct Fields<'a> {
    obj: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    fn has(&self, key: &str) -> bool {
        self.obj.iter().any(|(k, _)| k == key)
    }

    fn str_field(&self, key: &str) -> Result<Option<&'a str>, RequestError> {
        match self.obj.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v.as_str(key).map(Some).map_err(RequestError::bad),
        }
    }

    fn f64_field(&self, key: &str) -> Result<Option<f64>, RequestError> {
        match self.obj.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => {
                let x = v.as_f64(key).map_err(RequestError::bad)?;
                if x.is_finite() {
                    Ok(Some(x))
                } else {
                    Err(RequestError::bad(format!("'{key}' must be finite")))
                }
            }
        }
    }

    /// A non-negative integer field. JSON numbers are doubles, so the
    /// value must be integral and at most 2^53 to be trusted.
    fn uint_field(&self, key: &str) -> Result<Option<u64>, RequestError> {
        match self.f64_field(key)? {
            None => Ok(None),
            Some(x) => {
                if x < 0.0 || x.fract() != 0.0 || x > 9_007_199_254_740_992.0 {
                    return Err(RequestError::bad(format!(
                        "'{key}' must be a non-negative integer, got {x}"
                    )));
                }
                Ok(Some(x as u64))
            }
        }
    }

    /// A `u32` field; the shared validators check its range once every
    /// parameter it interacts with is known.
    fn u32_field(&self, key: &str, default: u32) -> Result<u32, RequestError> {
        match self.uint_field(key)? {
            None => Ok(default),
            Some(v) => {
                u32::try_from(v).map_err(|_| RequestError::bad(format!("'{key}' is out of range")))
            }
        }
    }
}

/// Parses and fully validates one `/v1/yield` body.
pub fn parse_yield_request(body: &[u8]) -> Result<YieldRequest, RequestError> {
    let text =
        std::str::from_utf8(body).map_err(|_| RequestError::bad("request body is not UTF-8"))?;
    let value = JsonValue::parse(text).map_err(RequestError::bad)?;
    let obj = value.as_object("request body").map_err(RequestError::bad)?;
    for (key, _) in obj {
        if !is_known_field(key.as_str()) {
            return Err(RequestError::bad(format!("unknown field '{key}'")));
        }
    }
    if let Some(dup) = obj
        .iter()
        .enumerate()
        .find(|(i, (k, _))| obj[..*i].iter().any(|(prev, _)| prev == k))
    {
        return Err(RequestError::bad(format!("duplicate field '{}'", dup.1 .0)));
    }
    let fields = Fields { obj };

    let tier = Tier::parse(fields.str_field("tier")?).map_err(RequestError::bad)?;

    let scheme = parse_scheme(&fields)?;
    spec::reject_foreign_subparams(ParamStyle::Json, &scheme, |key| fields.has(key))
        .map_err(RequestError::bad)?;

    let estimator = parse_estimator(&fields)?;
    let defect_model = parse_defect_model(&fields)?;
    spec::reject_foreign_estimator_params(
        ParamStyle::Json,
        estimator.kind(),
        defect_model.kind(),
        |key| fields.has(key),
    )
    .map_err(RequestError::bad)?;

    if matches!(defect_model, DefectModel::Clustered(_)) && fields.has("p") {
        return Err(RequestError::bad(spec::clustered_p_error(ParamStyle::Json)));
    }

    let assay = match fields.str_field("assay")? {
        None => None,
        Some(label) => Some(label.parse::<AssayPanel>().map_err(RequestError::bad)?),
    };

    check_tier(
        &fields,
        tier,
        &scheme,
        assay.is_some(),
        &estimator,
        &defect_model,
    )?;

    let p = fields.f64_field("p")?.unwrap_or(0.95);
    if !(0.0..=1.0).contains(&p) {
        return Err(RequestError::bad(format!("need 0 <= 'p' <= 1, got {p}")));
    }
    let trials = match fields.uint_field("trials")?.unwrap_or(10_000) {
        0 => return Err(RequestError::bad("'trials' must be at least 1")),
        n if n > u64::from(MAX_TRIALS) => {
            return Err(RequestError::bad(format!(
                "need 'trials' <= {MAX_TRIALS}, got {n}"
            )))
        }
        n => n as u32,
    };
    if let DefectModel::Clustered(cluster) = &defect_model {
        let radius = f64::from(cluster.spread_radius());
        let ball = 1.0 + 3.0 * radius * (radius + 1.0);
        let visits = f64::from(trials) * cluster.mean_clusters() * ball;
        if visits > MAX_CLUSTER_VISITS {
            return Err(RequestError::bad(format!(
                "clustered request too large: trials * cluster_mean * ball(cluster_radius) \
                 = {visits:.3e} estimated cell visits, over the ceiling of \
                 {MAX_CLUSTER_VISITS:.0e}; lower 'trials', 'cluster_mean' or 'cluster_radius'"
            )));
        }
    }
    if tier == Tier::Operational && trials > MAX_OPERATIONAL_TRIALS {
        return Err(RequestError::bad(format!(
            "operational request too large: {trials} trials, over the ceiling of \
             {MAX_OPERATIONAL_TRIALS} for the assay tier; lower 'trials'"
        )));
    }
    if tier != Tier::Operational && matches!(defect_model, DefectModel::Bernoulli) {
        let cells = match scheme {
            SchemeChoice::HexDtmb { primaries, .. } => primaries as u64,
            SchemeChoice::SquareDtmb { width, height, .. } => u64::from(width) * u64::from(height),
            SchemeChoice::SpareRows {
                width,
                module_rows,
                spare_rows,
            } => u64::from(width) * (u64::from(module_rows) + u64::from(spare_rows)),
        };
        let work = cells * u64::from(trials);
        if work as f64 > MAX_CELL_TRIALS {
            return Err(RequestError::bad(format!(
                "request too large: {cells} cells * {trials} trials = {work} estimated \
                 cell-trials, over the ceiling of {MAX_CELL_TRIALS:.0e}; lower 'trials' \
                 or the array size"
            )));
        }
    }
    let seed = fields.uint_field("seed")?.unwrap_or(1);

    let cache = match fields.str_field("cache")? {
        None | Some("default") => CacheMode::Default,
        Some("bypass") => CacheMode::Bypass,
        Some(other) => {
            return Err(RequestError::bad(format!(
                "unknown cache mode '{other}' (valid: default, bypass)"
            )))
        }
    };

    let query = Query {
        estimator,
        defect_model,
        p,
        trials,
        seed,
    };
    Ok(YieldRequest {
        tier,
        scheme,
        assay,
        query,
        cache,
    })
}

fn parse_scheme(fields: &Fields<'_>) -> Result<SchemeChoice, RequestError> {
    let kind = spec::parse_scheme_token(fields.str_field("scheme")?).map_err(RequestError::bad)?;
    let scheme = match kind {
        SchemeKind::HexDtmb => SchemeChoice::HexDtmb {
            design: spec::parse_design_token(fields.str_field("design")?)
                .map_err(RequestError::bad)?,
            primaries: fields
                .uint_field("primaries")?
                .map_or(100, |n| usize::try_from(n).unwrap_or(usize::MAX)),
        },
        SchemeKind::SquareDtmb => SchemeChoice::SquareDtmb {
            pattern: spec::parse_pattern_token(fields.str_field("pattern")?)
                .map_err(RequestError::bad)?,
            width: fields.u32_field("width", 16)?,
            height: fields.u32_field("height", 16)?,
        },
        SchemeKind::SpareRows => SchemeChoice::SpareRows {
            width: fields.u32_field("width", 8)?,
            module_rows: fields.u32_field("module_rows", 6)?,
            spare_rows: fields.u32_field("spare_rows", 1)?,
        },
    };
    scheme
        .validate(ParamStyle::Json)
        .map_err(RequestError::bad)?;
    Ok(scheme)
}

fn parse_estimator(fields: &Fields<'_>) -> Result<Estimator, RequestError> {
    match spec::parse_estimator_token(fields.str_field("estimator")?).map_err(RequestError::bad)? {
        EstimatorKind::Naive => Ok(Estimator::Naive),
        EstimatorKind::Stratified => {
            let tolerance = fields.f64_field("tolerance")?.unwrap_or(1e-6);
            let pilot = fields.u32_field("pilot", 64)?;
            spec::stratified_config(ParamStyle::Json, tolerance, pilot)
                .map(Estimator::Stratified)
                .map_err(RequestError::bad)
        }
    }
}

fn parse_defect_model(fields: &Fields<'_>) -> Result<DefectModel, RequestError> {
    match spec::parse_defect_model_token(fields.str_field("defect_model")?)
        .map_err(RequestError::bad)?
    {
        DefectModelKind::Bernoulli => Ok(DefectModel::Bernoulli),
        DefectModelKind::Clustered => spec::clustered_defects(
            ParamStyle::Json,
            fields.f64_field("cluster_mean")?.unwrap_or(1.0),
            fields.u32_field("cluster_dispersion", 1)?,
            // Any radius past u32 is past the cap too; saturate so the
            // cap's message names it.
            fields
                .uint_field("cluster_radius")?
                .map_or(2, |n| u32::try_from(n).unwrap_or(u32::MAX)),
            fields.f64_field("cluster_peak")?.unwrap_or(0.8),
        )
        .map(DefectModel::Clustered)
        .map_err(RequestError::bad),
    }
}

/// Tier-specific coherence rules.
fn check_tier(
    fields: &Fields<'_>,
    tier: Tier,
    scheme: &SchemeChoice,
    has_assay: bool,
    estimator: &Estimator,
    model: &DefectModel,
) -> Result<(), RequestError> {
    match tier {
        Tier::Raw => {
            if !matches!(scheme, SchemeChoice::HexDtmb { .. }) {
                return Err(RequestError::bad(
                    "tier 'raw' models hexagonal arrays only \
                     (raw yield is defined over the hex chip's primary cells)",
                ));
            }
            if has_assay {
                return Err(RequestError::bad(
                    "'assay' implies tier 'operational', not 'raw'",
                ));
            }
            if matches!(estimator, Estimator::Stratified(_)) {
                return Err(RequestError::bad(
                    "tier 'raw' supports the naive estimator only \
                     (use tier 'operational' for stratified raw yield)",
                ));
            }
            if matches!(model, DefectModel::Clustered(_)) {
                return Err(RequestError::bad(
                    "tier 'raw' supports the Bernoulli defect model only \
                     (use tier 'operational' for clustered raw yield)",
                ));
            }
        }
        Tier::Reconfigured => {
            if has_assay {
                return Err(RequestError::bad(
                    "'assay' implies tier 'operational'; \
                     set \"tier\": \"operational\" to run the assay-aware stack",
                ));
            }
        }
        Tier::Operational => {
            if !has_assay {
                return Err(RequestError::bad(
                    "tier 'operational' requires 'assay' \
                     (valid: ivd-panel, metabolic-panel)",
                ));
            }
            // The assay workload fixes the chip to the DTMB(2,6) IVD
            // case-study layout, so the scheme must be hexagonal and every
            // array-shaping field is foreign — the shared assay guard.
            spec::check_assay_subparams(
                ParamStyle::Json,
                matches!(scheme, SchemeChoice::HexDtmb { .. }),
                |key| fields.has(key),
            )
            .map_err(RequestError::bad)?;
        }
    }
    Ok(())
}

impl YieldRequest {
    /// The engine descriptor this request maps to: exactly the fields
    /// that shape the cached evaluator (scheme/shape, assay chip) and none
    /// of the per-request ones (`p`, `trials`, `seed`, estimator, defect
    /// model). Two requests with equal descriptors run on the same cached
    /// engine.
    #[must_use]
    pub fn engine_spec(&self) -> EngineSpec {
        match self.assay {
            Some(panel) => EngineSpec::Assay(panel),
            None => EngineSpec::Scheme(self.scheme),
        }
    }

    /// The canonical engine-cache key (see [`EngineSpec::engine_key`]).
    #[must_use]
    pub fn engine_key(&self) -> String {
        self.engine_spec().engine_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<YieldRequest, RequestError> {
        parse_yield_request(body.as_bytes())
    }

    #[test]
    fn minimal_request_fills_cli_defaults() {
        let r = parse(r#"{}"#).unwrap();
        assert_eq!(r.tier, Tier::Reconfigured);
        assert_eq!(
            r.scheme,
            SchemeChoice::HexDtmb {
                design: None,
                primaries: 100
            }
        );
        let q = r.query;
        assert_eq!(
            (q.estimator, q.defect_model),
            (Estimator::Naive, DefectModel::Bernoulli)
        );
        assert_eq!((q.p, q.trials, q.seed), (0.95, 10_000, 1));
        assert_eq!(r.cache, CacheMode::Default);
    }

    #[test]
    fn foreign_scheme_subparams_are_rejected() {
        let err = parse(r#"{"scheme": "hex-dtmb", "pattern": "stripes"}"#).unwrap_err();
        assert_eq!(
            err.message,
            "'pattern' does not apply to scheme 'hex-dtmb' \
             (its parameters: design, primaries)"
        );
        let err = parse(r#"{"scheme": "square-dtmb", "design": "dtmb26"}"#).unwrap_err();
        assert!(err.message.contains("square-dtmb"));
        let err = parse(r#"{"scheme": "spare-rows", "height": 4}"#).unwrap_err();
        assert!(err.message.contains("spare-rows"));
    }

    #[test]
    fn foreign_estimator_and_model_params_are_rejected() {
        assert_eq!(
            parse(r#"{"pilot": 8}"#).unwrap_err().message,
            "'pilot' requires \"estimator\": \"stratified\""
        );
        assert_eq!(
            parse(r#"{"cluster_mean": 2.0}"#).unwrap_err().message,
            "'cluster_mean' requires \"defect_model\": \"clustered\""
        );
        let err = parse(r#"{"estimator": "stratified", "defect_model": "clustered"}"#).unwrap_err();
        assert!(err.message.contains("Bernoulli defect count"));
    }

    #[test]
    fn clustered_spread_work_is_capped() {
        // ball(64) = 12 481 cells: 8 trials at mean 10 000 are 9.98e8
        // visits, 9 trials 1.12e9.
        let body = |trials: u32| {
            format!(
                r#"{{"defect_model": "clustered", "cluster_mean": 10000, "cluster_radius": 64, "trials": {trials}}}"#
            )
        };
        assert!(parse(&body(8)).is_ok());
        let err = parse(&body(9)).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message.contains("1.123e9 estimated cell visits"),
            "{err}"
        );
        assert!(err.message.contains("ceiling of 1e9"), "{err}");
        // The serve-mix clustered request (64 trials, mean 1, radius 2)
        // is about 1.2k visits.
        assert!(parse(r#"{"defect_model": "clustered", "trials": 64}"#).is_ok());
        // The trial cap alone still admits the defaults.
        assert!(parse(r#"{"defect_model": "clustered", "trials": 10000000}"#).is_ok());
    }

    #[test]
    fn cell_trial_work_is_capped() {
        // 65 536 primaries: 76 293 trials are 4.99994e9 cell-trials,
        // 76 294 trials 5.000004e9.
        let body = |trials: u32| {
            format!(r#"{{"design": "dtmb26", "primaries": 65536, "p": 0.9, "trials": {trials}}}"#)
        };
        assert!(parse(&body(76_293)).is_ok());
        let err = parse(&body(76_294)).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message
                .contains("65536 cells * 76294 trials = 5000003584 estimated cell-trials"),
            "{err}"
        );
        assert!(err.message.contains("ceiling of 5e9"), "{err}");
        let over = |body: &str| {
            parse(body)
                .unwrap_err()
                .message
                .contains("estimated cell-trials")
        };
        assert!(over(
            r#"{"tier": "raw", "design": "dtmb16", "primaries": 65536, "trials": 76294}"#
        ));
        // Square and spare-row arrays count every cell of the array.
        let square = r#"{"scheme": "square-dtmb", "width": 1000, "height": 1000, "trials": 5001}"#;
        assert!(over(square));
        let square = r#"{"scheme": "square-dtmb", "width": 1000, "height": 1000, "trials": 5000}"#;
        assert!(parse(square).is_ok());
        let rows = r#"{"scheme": "spare-rows", "width": 1000, "module_rows": 900, "spare_rows": 100, "trials": 5001}"#;
        assert!(over(rows));
        let rows = r#"{"scheme": "spare-rows", "width": 1000, "module_rows": 900, "spare_rows": 100, "trials": 5000}"#;
        assert!(parse(rows).is_ok());
        // The operational tier and clustered requests keep their own bounds.
        let assay = |trials: u32| {
            parse(&format!(
                r#"{{"tier": "operational", "assay": "ivd-panel", "trials": {trials}}}"#
            ))
        };
        assert!(assay(MAX_OPERATIONAL_TRIALS).is_ok());
        let err = assay(10_000_000).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message
                .contains("10000000 trials, over the ceiling of 400000"),
            "{err}"
        );
        assert!(assay(MAX_OPERATIONAL_TRIALS + 1).is_err());
        let clustered = r#"{"tier": "operational", "assay": "metabolic-panel", "defect_model": "clustered", "trials": 400001}"#;
        assert!(parse(clustered)
            .unwrap_err()
            .message
            .contains("ceiling of 400000"));
        let stratified = r#"{"tier": "operational", "assay": "ivd-panel", "estimator": "stratified", "p": 0.999, "trials": 400000}"#;
        assert!(parse(stratified).is_ok());
        assert!(parse(r#"{"design": "dtmb26", "primaries": 65536, "defect_model": "clustered", "cluster_mean": 0.01, "trials": 100000}"#).is_ok());
        // Every request body of the serve-mix benchmark workload.
        for body in [
            r#"{"design": "dtmb26", "primaries": 600, "p": 0.99, "trials": 256}"#,
            r#"{"design": "dtmb26", "primaries": 100, "estimator": "stratified", "p": 0.999, "trials": 256}"#,
            r#"{"tier": "raw", "design": "dtmb16", "primaries": 100, "p": 0.99, "trials": 128}"#,
            r#"{"scheme": "square-dtmb", "pattern": "checkerboard", "width": 16, "height": 16, "p": 0.97, "trials": 256}"#,
            r#"{"scheme": "spare-rows", "width": 8, "module_rows": 6, "spare_rows": 2, "estimator": "stratified", "p": 0.995, "trials": 256}"#,
            r#"{"design": "dtmb44", "primaries": 200, "defect_model": "clustered", "trials": 64}"#,
            r#"{"scheme": "square-dtmb", "pattern": "stripes", "width": 12, "height": 12, "p": 0.95, "trials": 256}"#,
            r#"{"design": "dtmb26", "primaries": 2400, "p": 0.99, "trials": 64, "cache": "bypass"}"#,
            r#"{"tier": "operational", "assay": "ivd-panel", "p": 0.95, "trials": 64}"#,
        ] {
            assert!(parse(body).is_ok(), "{body}");
        }
    }

    #[test]
    fn clustered_rejects_p() {
        assert!(parse(r#"{"defect_model": "clustered", "p": 0.9}"#).is_err());
        assert!(parse(r#"{"defect_model": "clustered"}"#).is_ok());
    }

    #[test]
    fn tier_rules_hold() {
        assert!(parse(r#"{"tier": "raw", "scheme": "square-dtmb"}"#).is_err());
        assert!(parse(r#"{"tier": "raw", "estimator": "stratified"}"#).is_err());
        assert!(parse(r#"{"tier": "raw", "design": "dtmb26"}"#).is_ok());
        assert!(parse(r#"{"tier": "operational"}"#).is_err());
        assert!(parse(r#"{"tier": "operational", "assay": "ivd-panel"}"#).is_ok());
        assert!(parse(r#"{"assay": "ivd-panel"}"#).is_err());
        let err = parse(r#"{"tier": "operational", "assay": "ivd-panel", "design": "dtmb16"}"#)
            .unwrap_err();
        assert_eq!(
            err.message,
            "'design' does not apply with 'assay': the assay workload \
             fixes the chip to the DTMB(2,6) IVD case-study layout"
        );
    }

    #[test]
    fn unknown_design_lists_the_valid_designs() {
        assert_eq!(
            parse(r#"{"design": "dtmb99"}"#).unwrap_err().message,
            "unknown design 'dtmb99' (valid: none, dtmb16, dtmb26, dtmb26b, dtmb36, dtmb44)"
        );
    }

    #[test]
    fn unknown_and_duplicate_fields_are_rejected() {
        assert!(parse(r#"{"triaals": 10}"#)
            .unwrap_err()
            .message
            .contains("unknown field"));
        assert!(parse(r#"{"seed": 1, "seed": 2}"#)
            .unwrap_err()
            .message
            .contains("duplicate field"));
    }

    #[test]
    fn service_ceilings_apply() {
        for (body, message) in [
            (r#"{"primaries": 0}"#, "'primaries' must be at least 1"),
            (
                r#"{"primaries": 65537}"#,
                "need 'primaries' <= 65536, got 65537",
            ),
            (
                r#"{"scheme": "spare-rows", "module_rows": 0}"#,
                "need 1 <= 'module_rows' <= 4096, got 0",
            ),
        ] {
            assert_eq!(parse(body).unwrap_err().message, message);
        }
        assert!(parse(r#"{"trials": 100000000}"#).is_err());
        assert!(parse(r#"{"scheme": "square-dtmb", "width": 5000}"#).is_err());
        assert!(parse(r#"{"trials": 0}"#).is_err());
        assert!(parse(r#"{"seed": -1}"#).is_err());
        assert!(parse(r#"{"p": 1.5}"#).is_err());
    }

    #[test]
    fn engine_key_separates_engines_not_requests() {
        let a = parse(r#"{"design": "dtmb26", "p": 0.9, "seed": 7}"#).unwrap();
        let b = parse(r#"{"design": "dtmb26", "p": 0.99, "trials": 50, "seed": 8}"#).unwrap();
        assert_eq!(a.engine_key(), b.engine_key());
        let c = parse(r#"{"design": "dtmb36"}"#).unwrap();
        assert_ne!(a.engine_key(), c.engine_key());
        let e = parse(r#"{"tier": "operational", "assay": "ivd-panel"}"#).unwrap();
        assert!(e.engine_key().starts_with("assay:ivd-panel"));
    }

    #[test]
    fn engine_key_is_the_legacy_wire_format() {
        let r = parse(r#"{"design": "dtmb26", "primaries": 60}"#).unwrap();
        assert_eq!(
            r.engine_key(),
            "hex-dtmb:design=DTMB(2,6):primaries=60:block=auto"
        );
        let r = parse(
            r#"{"scheme": "spare-rows", "width": 8, "module_rows": 6,
                "spare_rows": 2}"#,
        )
        .unwrap();
        assert_eq!(
            r.engine_key(),
            "spare-rows:width=8:module-rows=6:spare-rows=2:block=auto"
        );
    }
}
