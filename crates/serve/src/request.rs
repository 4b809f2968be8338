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
//! CLI and the search enumerator; this module only adds the JSON framing
//! (field-presence tracking, duplicate/unknown-field rejection) and
//! untrusted-input ceilings ([`MAX_PRIMARIES`], [`MAX_TRIALS`]): a CLI
//! user who asks for a billion-cell array only hurts themselves; a
//! network client must not be able to park a worker (or the allocator)
//! with one request.

use dmfb_bench::json::JsonValue;
use dmfb_core::prelude::{AssayPanel, Biochip, ClusteredDefects, StratifiedConfig};
use dmfb_core::spec::{self, DefectModelKind, EstimatorKind, ParamStyle, SchemeKind};

/// The shared scheme descriptor (see [`dmfb_core::spec::SchemeSpec`]),
/// under the name this crate has always exported.
pub use dmfb_core::spec::SchemeSpec as SchemeChoice;
/// The shared tier selection (see [`dmfb_core::spec::Tier`]).
pub use dmfb_core::spec::Tier;
pub use dmfb_core::spec::{
    EngineParams, EngineSpec, MAX_BLOCK_TRIALS, MAX_DIM, MAX_PRIMARIES, MAX_TRIALS,
};

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

/// Estimator selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimatorChoice {
    /// Plain Monte-Carlo (the default).
    Naive,
    /// Defect-count-stratified rare-event estimator with its tuning.
    Stratified(StratifiedConfig),
}

impl EstimatorChoice {
    fn kind(&self) -> EstimatorKind {
        match self {
            EstimatorChoice::Naive => EstimatorKind::Naive,
            EstimatorChoice::Stratified(_) => EstimatorKind::Stratified,
        }
    }
}

/// Defect-model selection.
#[derive(Clone, Debug)]
pub enum DefectModelChoice {
    /// The paper's i.i.d. cell-failure assumption (the default).
    Bernoulli,
    /// Negative-binomial clustered wafer defects.
    Clustered(ClusteredDefects),
}

impl DefectModelChoice {
    fn kind(&self) -> DefectModelKind {
        match self {
            DefectModelChoice::Bernoulli => DefectModelKind::Bernoulli,
            DefectModelChoice::Clustered(_) => DefectModelKind::Clustered,
        }
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
    /// Estimator selection.
    pub estimator: EstimatorChoice,
    /// Defect-model selection.
    pub defect_model: DefectModelChoice,
    /// Trial-engine selection: `None` = auto block engine, `Some(0)` =
    /// scalar, `Some(n)` = `n`-trial batches.
    pub block_trials: Option<usize>,
    /// Cell-survival probability (unused by the clustered model).
    pub p: f64,
    /// Monte-Carlo trials (the total budget under the stratified
    /// estimator).
    pub trials: u32,
    /// Master seed. The engine seeds each estimate through
    /// [`dmfb_core::sim::SeedSequence`], so replies are byte-identical
    /// for identical requests regardless of worker or thread count.
    pub seed: u64,
    /// Cache directive.
    pub cache: CacheMode,
}

/// The service-level fields `/v1/yield` adds on top of the shared
/// scheme/estimator/model sub-parameter tables.
const TOP_FIELDS: [&str; 10] = [
    "tier",
    "scheme",
    "estimator",
    "defect_model",
    "block_trials",
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

    fn dim_field(&self, key: &str, default: u32, min: u32) -> Result<u32, RequestError> {
        let value = match self.uint_field(key)? {
            None => return Ok(default),
            Some(v) => u32::try_from(v)
                .map_err(|_| RequestError::bad(format!("'{key}' is out of range")))?,
        };
        if value < min || value > MAX_DIM {
            return Err(RequestError::bad(spec::dim_range_error(
                ParamStyle::Json,
                key,
                min,
                value,
            )));
        }
        Ok(value)
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

    let block_trials = match fields.uint_field("block_trials")? {
        None => None,
        Some(n) => {
            let n = usize::try_from(n)
                .map_err(|_| RequestError::bad("'block_trials' is out of range"))?;
            if n > MAX_BLOCK_TRIALS {
                return Err(RequestError::bad(spec::block_trials_cap_error(
                    ParamStyle::Json,
                    n,
                )));
            }
            Some(n)
        }
    };

    if matches!(defect_model, DefectModelChoice::Clustered(_)) {
        if fields.has("p") {
            return Err(RequestError::bad(spec::clustered_p_error(ParamStyle::Json)));
        }
        if fields.has("block_trials") {
            return Err(RequestError::bad(format!(
                "'block_trials' does not apply with \"defect_model\": \"clustered\": {}",
                spec::CLUSTERED_BLOCK_REASON
            )));
        }
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

    Ok(YieldRequest {
        tier,
        scheme,
        assay,
        estimator,
        defect_model,
        block_trials,
        p,
        trials,
        seed,
        cache,
    })
}

fn parse_scheme(fields: &Fields<'_>) -> Result<SchemeChoice, RequestError> {
    let kind = spec::parse_scheme_token(fields.str_field("scheme")?).map_err(RequestError::bad)?;
    match kind {
        SchemeKind::HexDtmb => {
            let design =
                spec::parse_design_token(fields.str_field("design")?).map_err(RequestError::bad)?;
            let primaries = match fields.uint_field("primaries")?.unwrap_or(100) {
                0 => return Err(RequestError::bad("'primaries' must be at least 1")),
                n if n > MAX_PRIMARIES as u64 => {
                    return Err(RequestError::bad(format!(
                        "need 'primaries' <= {MAX_PRIMARIES}, got {n}"
                    )))
                }
                n => n as usize,
            };
            Ok(SchemeChoice::HexDtmb { design, primaries })
        }
        SchemeKind::SquareDtmb => {
            let pattern = spec::parse_pattern_token(fields.str_field("pattern")?)
                .map_err(RequestError::bad)?;
            Ok(SchemeChoice::SquareDtmb {
                pattern,
                width: fields.dim_field("width", 16, 1)?,
                height: fields.dim_field("height", 16, 1)?,
            })
        }
        SchemeKind::SpareRows => Ok(SchemeChoice::SpareRows {
            width: fields.dim_field("width", 8, 1)?,
            module_rows: fields.dim_field("module_rows", 6, 1)?,
            spare_rows: fields.dim_field("spare_rows", 1, 0)?,
        }),
    }
}

fn parse_estimator(fields: &Fields<'_>) -> Result<EstimatorChoice, RequestError> {
    match spec::parse_estimator_token(fields.str_field("estimator")?).map_err(RequestError::bad)? {
        EstimatorKind::Naive => Ok(EstimatorChoice::Naive),
        EstimatorKind::Stratified => {
            let tolerance = fields.f64_field("tolerance")?.unwrap_or(1e-6);
            if !(0.0..1.0).contains(&tolerance) {
                return Err(RequestError::bad("need 0 <= 'tolerance' < 1"));
            }
            let pilot = match fields.uint_field("pilot")?.unwrap_or(64) {
                0 => return Err(RequestError::bad("'pilot' must be at least 1")),
                n if n > u64::from(u32::MAX) => {
                    return Err(RequestError::bad("'pilot' is out of range"))
                }
                n => n as u32,
            };
            Ok(EstimatorChoice::Stratified(StratifiedConfig {
                tolerance,
                pilot,
                ..StratifiedConfig::default()
            }))
        }
    }
}

fn parse_defect_model(fields: &Fields<'_>) -> Result<DefectModelChoice, RequestError> {
    match spec::parse_defect_model_token(fields.str_field("defect_model")?)
        .map_err(RequestError::bad)?
    {
        DefectModelKind::Bernoulli => Ok(DefectModelChoice::Bernoulli),
        DefectModelKind::Clustered => {
            let mean = fields.f64_field("cluster_mean")?.unwrap_or(1.0);
            if mean < 0.0 {
                return Err(RequestError::bad("'cluster_mean' must be non-negative"));
            }
            let dispersion = match fields.uint_field("cluster_dispersion")?.unwrap_or(1) {
                0 => return Err(RequestError::bad("'cluster_dispersion' must be at least 1")),
                n if n > u64::from(u32::MAX) => {
                    return Err(RequestError::bad("'cluster_dispersion' is out of range"))
                }
                n => n as u32,
            };
            let radius = match fields.uint_field("cluster_radius")?.unwrap_or(2) {
                n if n > 64 => return Err(RequestError::bad("need 'cluster_radius' <= 64")),
                n => n as u32,
            };
            let peak = fields.f64_field("cluster_peak")?.unwrap_or(0.8);
            if !(0.0..=1.0).contains(&peak) {
                return Err(RequestError::bad("need 0 <= 'cluster_peak' <= 1"));
            }
            Ok(DefectModelChoice::Clustered(ClusteredDefects::new(
                mean, dispersion, radius, peak,
            )))
        }
    }
}

/// Tier-specific coherence rules.
fn check_tier(
    fields: &Fields<'_>,
    tier: Tier,
    scheme: &SchemeChoice,
    has_assay: bool,
    estimator: &EstimatorChoice,
    model: &DefectModelChoice,
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
            if matches!(estimator, EstimatorChoice::Stratified(_)) {
                return Err(RequestError::bad(
                    "tier 'raw' supports the naive estimator only \
                     (use tier 'operational' for stratified raw yield)",
                ));
            }
            if matches!(model, DefectModelChoice::Clustered(_)) {
                return Err(RequestError::bad(
                    "tier 'raw' supports the Bernoulli defect model only \
                     (use tier 'operational' for clustered raw yield)",
                ));
            }
            if fields.has("block_trials") {
                return Err(RequestError::bad(
                    "'block_trials' does not apply to tier 'raw': raw yield runs the \
                     per-trial defect-injection engine, not the matching block engine",
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
            if matches!(estimator, EstimatorChoice::Stratified(_)) && fields.has("block_trials") {
                return Err(RequestError::bad(
                    "'block_trials' does not apply to the operational stratified \
                     estimator: it conditions each stratum on its defect count, already \
                     skipping the defect-free bulk the block engine short-circuits",
                ));
            }
        }
    }
    Ok(())
}

impl YieldRequest {
    /// The engine descriptor this request maps to: exactly the fields
    /// that shape the cached evaluator (scheme/shape, assay chip,
    /// trial-engine width) and none of the per-request ones (`p`,
    /// `trials`, `seed`, estimator, defect model). Two requests with
    /// equal descriptors run on the same cached engine.
    #[must_use]
    pub fn engine_params(&self) -> EngineParams {
        let spec = match self.assay {
            Some(panel) => EngineSpec::Assay(panel),
            None => EngineSpec::Scheme(self.scheme),
        };
        EngineParams {
            spec,
            block_trials: self.block_trials,
        }
    }

    /// The canonical engine-cache key: the [`SchemeSpec`] canonical form
    /// plus the trial-engine width (see [`EngineParams::engine_key`]).
    ///
    /// [`SchemeSpec`]: dmfb_core::spec::SchemeSpec
    #[must_use]
    pub fn engine_key(&self) -> String {
        self.engine_params().engine_key()
    }

    /// Builds the hex biochip this request describes (hex schemes only).
    #[must_use]
    pub fn biochip(&self) -> Biochip {
        self.scheme
            .biochip()
            .expect("biochip() is only called on hex schemes")
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
        assert!(matches!(r.estimator, EstimatorChoice::Naive));
        assert!(matches!(r.defect_model, DefectModelChoice::Bernoulli));
        assert_eq!((r.p, r.trials, r.seed), (0.95, 10_000, 1));
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
    fn clustered_rejects_p_and_block_trials() {
        assert!(parse(r#"{"defect_model": "clustered", "p": 0.9}"#).is_err());
        assert!(parse(r#"{"defect_model": "clustered", "block_trials": 64}"#).is_err());
        assert!(parse(r#"{"defect_model": "clustered"}"#).is_ok());
    }

    #[test]
    fn tier_rules_hold() {
        assert!(parse(r#"{"tier": "raw", "scheme": "square-dtmb"}"#).is_err());
        assert!(parse(r#"{"tier": "raw", "estimator": "stratified"}"#).is_err());
        assert!(parse(r#"{"tier": "raw", "block_trials": 0}"#).is_err());
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
        assert!(parse(
            r#"{"tier": "operational", "assay": "ivd-panel",
                "estimator": "stratified", "block_trials": 64}"#
        )
        .is_err());
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
        assert!(parse(r#"{"primaries": 1000000}"#).is_err());
        assert!(parse(r#"{"trials": 100000000}"#).is_err());
        assert!(parse(r#"{"block_trials": 100000}"#).is_err());
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
        let d = parse(r#"{"design": "dtmb26", "block_trials": 128}"#).unwrap();
        assert_ne!(a.engine_key(), d.engine_key());
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
                "spare_rows": 2, "block_trials": 0}"#,
        )
        .unwrap();
        assert_eq!(
            r.engine_key(),
            "spare-rows:width=8:module-rows=6:spare-rows=2:block=scalar"
        );
    }
}
