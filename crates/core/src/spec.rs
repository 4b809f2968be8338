//! The unified scheme/engine parameter vocabulary shared by the CLI
//! argument parser, the `dmfb serve` request validator, and the
//! design-space search enumerator.
//!
//! Three front ends accept the same scheme × estimator × defect-model ×
//! assay parameter space: `dmfb yield`/`sweep`/`bench` flags, the
//! `/v1/yield` JSON body, and `dmfb search`'s candidate enumeration.
//! Before this module each maintained its own copy of the token tables
//! and the foreign-parameter coherence rules; they drifted apart only by
//! luck. This module owns the vocabulary once:
//!
//! - [`SchemeSpec`] — a fully-resolved scheme selection (family plus its
//!   sub-parameters), with a canonical string form ([`SchemeSpec::canonical`]).
//! - [`EngineSpec`]/[`EngineParams`] — everything that shapes a cached
//!   evaluator engine, with the deterministic cache key
//!   ([`EngineParams::engine_key`]) the serve LRU and the reply bodies use.
//! - Token parsers ([`parse_scheme_token`] and friends) producing the
//!   shared `unknown … (valid: …)` diagnostics.
//! - Coherence guards ([`reject_foreign_subparams`],
//!   [`reject_foreign_estimator_params`], [`check_assay_subparams`])
//!   parameterised by a [`ParamStyle`] dialect, so the CLI keeps its
//!   `--flag` phrasing and the service its JSON-field phrasing while both
//!   run the *same* rules.
//!
//! Parameter names are stored canonically with underscores (the JSON
//! field spelling); [`ParamStyle::Cli`] renders them as `--dash-flags`.

use crate::Biochip;
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::SquarePattern;
use dmfb_yield::AssayPanel;

/// Upper bound on user-supplied array dimensions. Beyond this the region
/// constructors would panic on i32 conversion or allocate unboundedly;
/// the cap turns both into a clean front-end error long before either
/// point.
pub const MAX_DIM: u32 = 4096;

/// Upper bound on the hex primary-cell count a request may ask for.
pub const MAX_PRIMARIES: usize = 65_536;

/// Upper bound on `block_trials`. A batch is rounded up to whole 64-lane
/// words, so widths beyond this only inflate per-worker scratch buffers
/// without adding parallelism.
pub const MAX_BLOCK_TRIALS: usize = 65_536;

/// Upper bound on the Monte-Carlo trial count of one request.
pub const MAX_TRIALS: u32 = 10_000_000;

/// Every scheme-shaping sub-parameter any scheme understands, in
/// canonical (underscore) spelling. A new scheme parameter must be added
/// here so the per-scheme guard, the assay guard, and bench's blanket
/// rejection keep covering it.
pub const SCHEME_SUBPARAMS: [&str; 7] = [
    "design",
    "primaries",
    "pattern",
    "width",
    "height",
    "module_rows",
    "spare_rows",
];

/// Sub-parameters of the stratified estimator; rejected under the naive
/// estimator rather than silently ignored.
pub const ESTIMATOR_SUBPARAMS: [&str; 2] = ["tolerance", "pilot"];

/// Sub-parameters of the clustered defect model; rejected under the
/// Bernoulli model rather than silently ignored.
pub const CLUSTER_SUBPARAMS: [&str; 4] = [
    "cluster_mean",
    "cluster_dispersion",
    "cluster_radius",
    "cluster_peak",
];

/// Why `block_trials` cannot ride with the clustered defect model — the
/// shared tail of the CLI's and the service's rejection messages.
pub const CLUSTERED_BLOCK_REASON: &str =
    "the clustered defect sampler draws a variable-length stream per trial \
     that cannot be transposed into lanes; it always runs the scalar engine";

/// Which front-end dialect a diagnostic is rendered in: `--dash-flag`
/// phrasing for the CLI, `'json_field'` phrasing for the service. The
/// rules behind the messages are identical; only the spelling of a
/// parameter reference differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamStyle {
    /// `--cluster-mean requires --defect-model clustered`
    Cli,
    /// `'cluster_mean' requires "defect_model": "clustered"`
    Json,
}

impl ParamStyle {
    /// One parameter reference: `--module-rows` (CLI) or `'module_rows'`
    /// (JSON).
    #[must_use]
    pub fn param(self, name: &str) -> String {
        match self {
            ParamStyle::Cli => format!("--{}", name.replace('_', "-")),
            ParamStyle::Json => format!("'{name}'"),
        }
    }

    /// A parameter list for `(its parameters: …)` clauses: dash-flags for
    /// the CLI, bare field names for JSON.
    #[must_use]
    fn param_list(self, names: &[&str]) -> String {
        match self {
            ParamStyle::Cli => names
                .iter()
                .map(|k| format!("--{}", k.replace('_', "-")))
                .collect::<Vec<_>>()
                .join(", "),
            ParamStyle::Json => names.join(", "),
        }
    }
}

/// The yield tier a request or search targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// No reconfiguration: the chip is good iff no in-scope primary fails.
    Raw,
    /// Reconfigured (matching) yield — the paper's headline metric.
    Reconfigured,
    /// Assay-aware operational yield over the IVD case-study chip.
    Operational,
}

impl Tier {
    /// The wire/CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Raw => "raw",
            Tier::Reconfigured => "reconfigured",
            Tier::Operational => "operational",
        }
    }

    /// Parses a tier token; `None` defaults to the reconfigured tier.
    pub fn parse(token: Option<&str>) -> Result<Tier, String> {
        match token {
            None | Some("reconfigured") => Ok(Tier::Reconfigured),
            Some("raw") => Ok(Tier::Raw),
            Some("operational") => Ok(Tier::Operational),
            Some(other) => Err(format!(
                "unknown tier '{other}' (valid: raw, reconfigured, operational)"
            )),
        }
    }
}

/// A fully-resolved redundancy-scheme selection: the family plus every
/// sub-parameter that shapes the array. Two equal specs describe the
/// same evaluator engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeSpec {
    /// Hexagonal DTMB patterns (the default), or no redundancy at all.
    HexDtmb {
        /// Which DTMB design; `None` = no redundancy.
        design: Option<DtmbKind>,
        /// Primary-cell count of the array.
        primaries: usize,
    },
    /// Square-lattice interstitial patterns.
    SquareDtmb {
        /// Which spare pattern.
        pattern: SquarePattern,
        /// Array width in cells.
        width: u32,
        /// Array height in cells.
        height: u32,
    },
    /// Boundary spare-row baseline (shifted replacement).
    SpareRows {
        /// Array width in cells.
        width: u32,
        /// Module rows above the spare rows.
        module_rows: u32,
        /// Spare rows at the bottom.
        spare_rows: u32,
    },
}

impl SchemeSpec {
    /// The scheme-family token (`hex-dtmb`, `square-dtmb`, `spare-rows`).
    #[must_use]
    pub fn scheme_name(&self) -> &'static str {
        match self {
            SchemeSpec::HexDtmb { .. } => "hex-dtmb",
            SchemeSpec::SquareDtmb { .. } => "square-dtmb",
            SchemeSpec::SpareRows { .. } => "spare-rows",
        }
    }

    /// The canonical sub-parameter names this family understands, in
    /// canonical (underscore) spelling.
    #[must_use]
    pub fn allowed_subparams(&self) -> &'static [&'static str] {
        match self {
            SchemeSpec::HexDtmb { .. } => &["design", "primaries"],
            SchemeSpec::SquareDtmb { .. } => &["pattern", "width", "height"],
            SchemeSpec::SpareRows { .. } => &["width", "module_rows", "spare_rows"],
        }
    }

    /// The canonical string form: family plus every sub-parameter in
    /// declaration order, `key=value` separated by `:`. This is the
    /// string the bench `spec` column records and the engine cache key
    /// extends, so it is stable across releases.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            SchemeSpec::HexDtmb { design, primaries } => format!(
                "hex-dtmb:design={}:primaries={primaries}",
                design.map_or("none".to_string(), |kind| kind.to_string())
            ),
            SchemeSpec::SquareDtmb {
                pattern,
                width,
                height,
            } => format!("square-dtmb:pattern={pattern:?}:width={width}:height={height}"),
            SchemeSpec::SpareRows {
                width,
                module_rows,
                spare_rows,
            } => format!(
                "spare-rows:width={width}:module-rows={module_rows}:spare-rows={spare_rows}"
            ),
        }
    }

    /// Builds the hex chip this spec describes, or `None` for the
    /// square-lattice families (which run the generic engine instead).
    #[must_use]
    pub fn biochip(&self) -> Option<Biochip> {
        match self {
            SchemeSpec::HexDtmb { design, primaries } => Some(match design {
                Some(kind) => Biochip::dtmb(*kind, *primaries),
                None => Biochip::without_redundancy(*primaries),
            }),
            _ => None,
        }
    }
}

/// Everything that selects a cached evaluator engine: a scheme, or the
/// fixed assay chip (which overrides any scheme shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSpec {
    /// A scheme-shaped matching engine.
    Scheme(SchemeSpec),
    /// The Section 7 assay stack over the fixed IVD case-study chip.
    Assay(AssayPanel),
}

impl EngineSpec {
    /// Canonical string form (see [`SchemeSpec::canonical`]).
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            EngineSpec::Scheme(spec) => spec.canonical(),
            EngineSpec::Assay(panel) => format!("assay:{}", panel.label()),
        }
    }
}

/// The full engine descriptor: what to build ([`EngineSpec`]) plus the
/// trial-engine width, which sizes per-worker scratch state and is
/// therefore part of the engine identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineParams {
    /// What the engine evaluates.
    pub spec: EngineSpec,
    /// Trial-engine selection: `None` = auto, `Some(0)` = scalar,
    /// `Some(n)` = block engine with `n`-trial batches.
    pub block_trials: Option<usize>,
}

impl EngineParams {
    /// The block-engine segment of the key (`auto`, `scalar`, or the
    /// batch width).
    #[must_use]
    pub fn block_label(&self) -> String {
        match self.block_trials {
            None => "auto".to_string(),
            Some(0) => "scalar".to_string(),
            Some(n) => n.to_string(),
        }
    }

    /// The deterministic engine-cache key: the canonical spec form plus
    /// the trial-engine width. Two parameter sets share a cached engine
    /// iff their keys are equal; the serve reply embeds the key verbatim
    /// in its `engine` field, so the format is wire-stable.
    #[must_use]
    pub fn engine_key(&self) -> String {
        format!("{}:block={}", self.spec.canonical(), self.block_label())
    }
}

/// A scheme-family token, before its sub-parameters are resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// `hex-dtmb` (the default).
    HexDtmb,
    /// `square-dtmb`.
    SquareDtmb,
    /// `spare-rows`.
    SpareRows,
}

/// Parses a scheme-family token; `None` defaults to `hex-dtmb`.
pub fn parse_scheme_token(token: Option<&str>) -> Result<SchemeKind, String> {
    match token {
        None | Some("hex-dtmb") => Ok(SchemeKind::HexDtmb),
        Some("square-dtmb") => Ok(SchemeKind::SquareDtmb),
        Some("spare-rows") => Ok(SchemeKind::SpareRows),
        Some(other) => Err(format!(
            "unknown scheme '{other}' (valid: hex-dtmb, square-dtmb, spare-rows)"
        )),
    }
}

/// Parses a DTMB design token; `None` or `none` selects no redundancy.
pub fn parse_design_token(token: Option<&str>) -> Result<Option<DtmbKind>, String> {
    match token {
        None | Some("none") => Ok(None),
        Some("dtmb16") => Ok(Some(DtmbKind::Dtmb16)),
        Some("dtmb26") => Ok(Some(DtmbKind::Dtmb26A)),
        Some("dtmb26b") => Ok(Some(DtmbKind::Dtmb26B)),
        Some("dtmb36") => Ok(Some(DtmbKind::Dtmb36)),
        Some("dtmb44") => Ok(Some(DtmbKind::Dtmb44)),
        Some(other) => Err(format!(
            "unknown design '{other}' (valid: none, dtmb16, dtmb26, dtmb26b, dtmb36, dtmb44)"
        )),
    }
}

/// Parses a square-pattern token; `None` defaults to the perfect code.
pub fn parse_pattern_token(token: Option<&str>) -> Result<SquarePattern, String> {
    match token {
        None | Some("perfect-code") => Ok(SquarePattern::PerfectCode),
        Some("stripes") => Ok(SquarePattern::Stripes),
        Some("checkerboard") => Ok(SquarePattern::Checkerboard),
        Some("quarter") => Ok(SquarePattern::Quarter),
        Some(other) => Err(format!(
            "unknown pattern '{other}' \
             (valid: perfect-code, stripes, checkerboard, quarter)"
        )),
    }
}

/// Which yield estimator was selected (the stratified variant's tuning
/// parses separately — the CLI and the service carry different config
/// payloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Plain Monte-Carlo (the default).
    Naive,
    /// Defect-count-stratified rare-event estimator.
    Stratified,
}

/// Parses an estimator token; `None` defaults to naive.
pub fn parse_estimator_token(token: Option<&str>) -> Result<EstimatorKind, String> {
    match token {
        None | Some("naive") => Ok(EstimatorKind::Naive),
        Some("stratified") => Ok(EstimatorKind::Stratified),
        Some(other) => Err(format!(
            "unknown estimator '{other}' (valid: naive, stratified)"
        )),
    }
}

/// Which defect model was selected (cluster tuning parses separately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefectModelKind {
    /// The paper's i.i.d. cell-failure assumption (the default).
    Bernoulli,
    /// Negative-binomial clustered wafer defects.
    Clustered,
}

/// Parses a defect-model token; `None` defaults to Bernoulli.
pub fn parse_defect_model_token(token: Option<&str>) -> Result<DefectModelKind, String> {
    match token {
        None | Some("bernoulli") => Ok(DefectModelKind::Bernoulli),
        Some("clustered") => Ok(DefectModelKind::Clustered),
        Some(other) => Err(format!(
            "unknown defect model '{other}' (valid: bernoulli, clustered)"
        )),
    }
}

/// Rejects scheme sub-parameters the selected scheme would silently
/// ignore (`--pattern checkerboard` without `--scheme square-dtmb` would
/// otherwise run hex and mislabel what was measured). `has` reports
/// whether a canonical (underscore) parameter name is present in the
/// request.
pub fn reject_foreign_subparams(
    style: ParamStyle,
    spec: &SchemeSpec,
    has: impl Fn(&str) -> bool,
) -> Result<(), String> {
    let scheme = spec.scheme_name();
    let allowed = spec.allowed_subparams();
    for key in SCHEME_SUBPARAMS {
        if has(key) && !allowed.contains(&key) {
            return Err(match style {
                ParamStyle::Cli => format!(
                    "{} does not apply to --scheme {scheme} (its parameters: {})",
                    style.param(key),
                    style.param_list(allowed)
                ),
                ParamStyle::Json => format!(
                    "'{key}' does not apply to scheme '{scheme}' (its parameters: {})",
                    style.param_list(allowed)
                ),
            });
        }
    }
    Ok(())
}

/// Rejects estimator/defect-model sub-parameters that the selected
/// estimator or model would silently ignore, and the one combination
/// that is statistically incoherent: the stratified estimator conditions
/// on the i.i.d. Bernoulli defect count, so it cannot run under the
/// clustered model.
pub fn reject_foreign_estimator_params(
    style: ParamStyle,
    estimator: EstimatorKind,
    model: DefectModelKind,
    has: impl Fn(&str) -> bool,
) -> Result<(), String> {
    if estimator == EstimatorKind::Naive {
        for key in ESTIMATOR_SUBPARAMS {
            if has(key) {
                return Err(match style {
                    ParamStyle::Cli => format!("--{key} requires --estimator stratified"),
                    ParamStyle::Json => format!("'{key}' requires \"estimator\": \"stratified\""),
                });
            }
        }
    }
    if model == DefectModelKind::Bernoulli {
        for key in CLUSTER_SUBPARAMS {
            if has(key) {
                return Err(match style {
                    ParamStyle::Cli => {
                        format!("{} requires --defect-model clustered", style.param(key))
                    }
                    ParamStyle::Json => {
                        format!("'{key}' requires \"defect_model\": \"clustered\"")
                    }
                });
            }
        }
    }
    if estimator == EstimatorKind::Stratified && model == DefectModelKind::Clustered {
        return Err(match style {
            ParamStyle::Cli => {
                "--estimator stratified conditions on the i.i.d. Bernoulli defect count; \
                 it cannot run under --defect-model clustered"
                    .into()
            }
            ParamStyle::Json => {
                "the stratified estimator conditions on the i.i.d. Bernoulli defect count; \
                 it cannot run under the clustered defect model"
                    .into()
            }
        });
    }
    Ok(())
}

/// Validates an assay request: hexagonal scheme only (the IVD case-study
/// chip is a hex DTMB(2,6) array), and since the assay workload *fixes*
/// the chip, every array-shaping sub-parameter is rejected rather than
/// silently ignored — the same discipline as
/// [`reject_foreign_subparams`].
pub fn check_assay_subparams(
    style: ParamStyle,
    hex_scheme: bool,
    has: impl Fn(&str) -> bool,
) -> Result<(), String> {
    if !hex_scheme {
        return Err(match style {
            ParamStyle::Cli => {
                "--assay requires --scheme hex-dtmb (the IVD case-study chip is hexagonal)".into()
            }
            ParamStyle::Json => "'assay' requires scheme 'hex-dtmb' \
                 (the IVD case-study chip is hexagonal)"
                .into(),
        });
    }
    for key in SCHEME_SUBPARAMS {
        if has(key) {
            return Err(match style {
                ParamStyle::Cli => format!(
                    "{} does not apply with --assay: the assay workload fixes the chip \
                     to the DTMB(2,6) IVD case-study layout",
                    style.param(key)
                ),
                ParamStyle::Json => format!(
                    "'{key}' does not apply with 'assay': the assay workload \
                     fixes the chip to the DTMB(2,6) IVD case-study layout"
                ),
            });
        }
    }
    Ok(())
}

/// The diagnostic for `p` under the clustered defect model (no single
/// survival probability parameterises the cluster sampler).
#[must_use]
pub fn clustered_p_error(style: ParamStyle) -> String {
    match style {
        ParamStyle::Cli => "--p does not apply with --defect-model clustered \
                            (the cluster parameters set the defect intensity)"
            .into(),
        ParamStyle::Json => "'p' does not apply with \"defect_model\": \"clustered\" \
                             (the cluster parameters set the defect intensity)"
            .into(),
    }
}

/// The diagnostic for a `block_trials` value above [`MAX_BLOCK_TRIALS`].
#[must_use]
pub fn block_trials_cap_error(style: ParamStyle, n: usize) -> String {
    format!(
        "need {} <= {MAX_BLOCK_TRIALS}, got {n} \
         (wider batches only grow the per-worker scratch state)",
        style.param("block_trials")
    )
}

/// The diagnostic for an array dimension outside `min..=`[`MAX_DIM`].
#[must_use]
pub fn dim_range_error(style: ParamStyle, key: &str, min: u32, value: u32) -> String {
    format!(
        "need {min} <= {} <= {MAX_DIM}, got {value}",
        style.param(key)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_forms_are_wire_stable() {
        let hex = SchemeSpec::HexDtmb {
            design: Some(DtmbKind::Dtmb26A),
            primaries: 60,
        };
        assert_eq!(hex.canonical(), "hex-dtmb:design=DTMB(2,6):primaries=60");
        let bare = SchemeSpec::HexDtmb {
            design: None,
            primaries: 100,
        };
        assert_eq!(bare.canonical(), "hex-dtmb:design=none:primaries=100");
        let square = SchemeSpec::SquareDtmb {
            pattern: SquarePattern::PerfectCode,
            width: 16,
            height: 12,
        };
        assert_eq!(
            square.canonical(),
            "square-dtmb:pattern=PerfectCode:width=16:height=12"
        );
        let spare = SchemeSpec::SpareRows {
            width: 8,
            module_rows: 6,
            spare_rows: 1,
        };
        assert_eq!(
            spare.canonical(),
            "spare-rows:width=8:module-rows=6:spare-rows=1"
        );
    }

    #[test]
    fn engine_keys_extend_the_canonical_form() {
        let params = EngineParams {
            spec: EngineSpec::Scheme(SchemeSpec::HexDtmb {
                design: Some(DtmbKind::Dtmb26A),
                primaries: 60,
            }),
            block_trials: None,
        };
        assert_eq!(
            params.engine_key(),
            "hex-dtmb:design=DTMB(2,6):primaries=60:block=auto"
        );
        let scalar = EngineParams {
            block_trials: Some(0),
            ..params
        };
        assert_eq!(
            scalar.engine_key(),
            "hex-dtmb:design=DTMB(2,6):primaries=60:block=scalar"
        );
        let assay = EngineParams {
            spec: EngineSpec::Assay(AssayPanel::StandardIvd),
            block_trials: Some(128),
        };
        assert_eq!(assay.engine_key(), "assay:ivd-panel:block=128");
    }

    #[test]
    fn dialects_render_the_same_rule_differently() {
        let spec = SchemeSpec::HexDtmb {
            design: None,
            primaries: 100,
        };
        let cli =
            reject_foreign_subparams(ParamStyle::Cli, &spec, |k| k == "module_rows").unwrap_err();
        assert_eq!(
            cli,
            "--module-rows does not apply to --scheme hex-dtmb \
             (its parameters: --design, --primaries)"
        );
        let json =
            reject_foreign_subparams(ParamStyle::Json, &spec, |k| k == "module_rows").unwrap_err();
        assert_eq!(
            json,
            "'module_rows' does not apply to scheme 'hex-dtmb' \
             (its parameters: design, primaries)"
        );
    }

    #[test]
    fn stratified_clustered_is_incoherent_in_both_dialects() {
        for style in [ParamStyle::Cli, ParamStyle::Json] {
            let err = reject_foreign_estimator_params(
                style,
                EstimatorKind::Stratified,
                DefectModelKind::Clustered,
                |_| false,
            )
            .unwrap_err();
            assert!(err.contains("i.i.d. Bernoulli defect count"), "{err}");
        }
    }

    #[test]
    fn token_parsers_default_and_reject() {
        assert_eq!(parse_scheme_token(None).unwrap(), SchemeKind::HexDtmb);
        assert!(parse_scheme_token(Some("triangular"))
            .unwrap_err()
            .contains("hex-dtmb, square-dtmb, spare-rows"));
        assert_eq!(
            parse_design_token(Some("dtmb26")).unwrap(),
            Some(DtmbKind::Dtmb26A)
        );
        assert!(parse_design_token(Some("dtmb99")).is_err());
        assert_eq!(Tier::parse(None).unwrap(), Tier::Reconfigured);
        assert!(Tier::parse(Some("cosmic")).unwrap_err().contains("valid:"));
        assert_eq!(
            parse_estimator_token(Some("stratified")).unwrap(),
            EstimatorKind::Stratified
        );
        assert_eq!(
            parse_defect_model_token(Some("clustered")).unwrap(),
            DefectModelKind::Clustered
        );
    }
}
