//! `dmfb` — command-line driver for the dmfb-redundancy toolchain.
//!
//! ```text
//! dmfb yield   --design dtmb26 --primaries 100 --p 0.95
//! dmfb sweep   --design dtmb44 --primaries 100 --from 0.80 --to 1.00 --steps 11 --effective
//! dmfb faults  --casestudy --max-m 40
//! dmfb render  --design dtmb16 --primaries 100 --inject 0.9 --seed 7
//! dmfb assay   --faults 10 --seed 42
//! ```

mod bench_cmd;
mod campaign_cmd;
mod serve_cmd;

use dmfb_core::prelude::*;
use dmfb_core::spec::{self, DefectModelKind, EngineSpec, EstimatorKind, ParamStyle, SchemeKind};
use dmfb_core::{grid::render, yield_model::effective};
use dmfb_core::{DefectModel, Engine, Estimate, Estimator, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Like `println!`, but a closed stdout (`dmfb ... | head`) ends the
/// process quietly with success instead of panicking on broken pipe.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// `print!` counterpart of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if write!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "yield" => cmd_yield(&opts),
        "sweep" => cmd_sweep(&opts),
        "search" => cmd_search(&opts),
        "faults" => cmd_faults(&opts),
        "render" => cmd_render(&opts),
        "assay" => cmd_assay(&opts),
        "profile" => cmd_profile(&opts),
        "bench" => cmd_bench(&opts),
        "campaign" => cmd_campaign(&opts),
        "serve" => cmd_serve(&opts),
        "soak" => cmd_soak(&opts),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dmfb — yield enhancement for digital microfluidic biochips (DATE 2005)

USAGE:
  dmfb yield  [--scheme SCHEME] --design <D> --primaries <N> --p <P> [--trials T] [--seed S]
              [--threads K] [--estimator E] [--defect-model M]
  dmfb yield  --scheme hex-dtmb --assay ivd-panel|metabolic-panel --p <P> [--trials T]
              [--seed S] [--threads K] [--estimator E] [--defect-model M]
              (raw vs reconfigured vs operational yield)
  dmfb sweep  [--scheme SCHEME] --design <D> --primaries <N> [--from P] [--to P] [--steps K]
              [--effective] [--batched] [--trials T] [--seed S] [--threads K] [--estimator E]
  dmfb sweep  --scheme hex-dtmb --assay PANEL [--from P] [--to P] [--steps K] [--trials T]
              [--seed S] [--threads K] [--estimator E]
              (three-tier CSV on the IVD case-study chip)
  dmfb search --target-yield <Y> [--tier raw|reconfigured|operational] [--assay PANEL]
              [--p P] [--trials T] [--seed S] [--threads K] [--max-primaries N]
              [--max-dim D] [--tolerance T] [--pilot N] [--json | --csv]
              (Pareto design-space search: enumerates DTMB designs, square
               patterns and spare-row counts under the caps, prunes hopeless
               candidates with the exact Hall bound before any sampling, scores
               survivors with the stratified estimator, and emits the
               non-dominated (area overhead, yield) frontier; --assay scores
               the operational tier on the IVD case-study chips; output is
               byte-identical across reruns and thread counts)
  dmfb faults (--casestudy | --design <D> --primaries <N>) [--max-m M] [--trials T]
  dmfb render --design <D> --primaries <N> [--inject P] [--seed S]
  dmfb assay  [--faults M] [--seed S]
  dmfb profile (--casestudy | --design <D> --primaries <N>) [--trials T]
  dmfb bench  [--scheme SCHEME | --assay PANEL | --search] [--quick] [--json] [--out DIR]
              [--label L] [--threads K] [--compare BASELINE.json]
              (fixed workload suite per scheme; scheme sub-parameters are rejected;
               --compare diffs against a committed dmfb-bench/1 report, lists every
               workload past the >25% normalised regression gate, then exits non-zero)
  dmfb campaign (--name C | --script FILE) [--assay PANEL] [--p P] [--trials T] [--seed S]
              [--threads K] [--rehearse] [--list]
              (scripted adversarial fault campaign on the DTMB(2,6) IVD case-study
               chip: compiles a scenario DSL into a deterministic seeded damage
               trajectory with NA-0090 replay markers (k = seed + idx), then reports
               per step the deterministic reconfigured/operational verdict on the
               targeted damage plus raw/reconfigured/operational survival under that
               damage merged with Bernoulli background defects; output is
               byte-identical across reruns and thread counts; --rehearse dry-runs
               markers only, --list names the built-in campaigns)
  dmfb serve  [--addr A] [--workers N] [--threads K] [--cache-capacity C]
              (long-lived yield daemon over HTTP/1.1: POST /v1/yield runs any
               yield/assay request from a JSON body, GET /v1/health reports cache
               statistics, POST /v1/shutdown stops gracefully; evaluator engines are
               cached per scheme so repeat requests skip construction, and identical
               requests get byte-identical replies)
  dmfb soak   [--addr A] [--requests N] [--concurrency C] [--trials T] [--primaries P]
              [--require-speedup F] [--quick] [--json] [--out DIR] [--label L]
              [--compare BASELINE.json] [--shutdown]
              (load harness for a running dmfb serve: cold/warm/mixed phases, emits
               p50/p95/p99 latency and cache hit rate as dmfb-bench/1 columns,
               verifies byte-identity and 4xx handling under load, gates against a
               committed baseline with the shared compare machinery)
  dmfb help

SCHEMES: hex-dtmb (default) | square-dtmb | spare-rows
  --scheme hex-dtmb    hexagonal DTMB patterns; pick one with --design/--primaries
  --scheme square-dtmb square interstitial patterns; sub-parameters:
                       --pattern perfect-code|stripes|checkerboard|quarter
                       --width W --height H (default 16x16)
  --scheme spare-rows  boundary spare-row baseline (shifted replacement);
                       sub-parameters: --width W --module-rows R --spare-rows S
ESTIMATORS (yield and sweep): --estimator naive (default) | stratified
  stratified = defect-count-stratified rare-event estimator: exact at p near 1
               with 10x+ fewer trials; sub-parameters:
               --tolerance T (truncated binomial mass, default 1e-6)
               --pilot N     (pilot trials per stratum, default 64)
DEFECT MODELS (yield): --defect-model bernoulli (default) | clustered
  clustered = negative-binomial cluster seeds spreading over the lattice;
              sub-parameters: --cluster-mean F (default 1.0)
              --cluster-dispersion R (default 1) --cluster-radius D (default 2)
              --cluster-peak P (default 0.8)
ASSAYS (hex-dtmb only; fixes the chip to the DTMB(2,6) IVD case study):
  --assay ivd-panel        four concurrent measurements (paper Figure 11)
  --assay metabolic-panel  eight measurements across all four metabolites
CAMPAIGNS (campaign): edge-column-wipeout | reservoir-cluster | wear-trajectory
  | parametric-drift, or --script FILE in the scenario DSL (lines:
  'scenario <name>', then 'step calm | wipe-column I | wipe-row I |
  cluster Q R radius N peak P | wear mtbf H stress S hours T |
  drift sigma S tolerance T | salvo N'); dmfb campaign --list for summaries
DESIGNS: none | dtmb16 | dtmb26 | dtmb26b | dtmb36 | dtmb44
THREADS: --threads 0 (default) = one worker per available core";

/// Which redundancy scheme a command drives: the shared descriptor from
/// [`dmfb_core::spec`], fully resolved (family plus sub-parameters).
/// Every scheme is built by [`Engine::build`]; hexagonal DTMB keeps the
/// historic report format.
pub(crate) use dmfb_core::spec::SchemeSpec as SchemeChoice;

/// Every option any command reads, and whether it takes a value. An
/// option outside this table is an error, never silently ignored; which
/// of them a given command accepts is checked per command after parsing.
const OPTIONS: &[(&str, bool)] = &[
    ("addr", true),
    ("all-primaries", false),
    ("assay", true),
    ("batched", false),
    ("cache-capacity", true),
    ("casestudy", false),
    ("cluster-dispersion", true),
    ("cluster-mean", true),
    ("cluster-peak", true),
    ("cluster-radius", true),
    ("compare", true),
    ("concurrency", true),
    ("csv", false),
    ("defect-model", true),
    ("design", true),
    ("effective", false),
    ("estimator", true),
    ("faults", true),
    ("from", true),
    ("height", true),
    ("inject", true),
    ("json", false),
    ("label", true),
    ("list", false),
    ("max-dim", true),
    ("max-m", true),
    ("max-primaries", true),
    ("module-rows", true),
    ("name", true),
    ("out", true),
    ("p", true),
    ("pattern", true),
    ("pilot", true),
    ("primaries", true),
    ("quick", false),
    ("rehearse", false),
    ("requests", true),
    ("require-speedup", true),
    ("scheme", true),
    ("script", true),
    ("search", false),
    ("seed", true),
    ("shutdown", false),
    ("spare-rows", true),
    ("steps", true),
    ("target-yield", true),
    ("threads", true),
    ("tier", true),
    ("to", true),
    ("tolerance", true),
    ("trials", true),
    ("width", true),
    ("workers", true),
];

/// Parsed `--key value` options (flags store "true").
struct Options {
    map: BTreeMap<String, String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected --option, got '{arg}'"));
            };
            let Some(&(_, takes_value)) = OPTIONS.iter().find(|(name, _)| *name == key) else {
                return Err(format!("unknown option --{key}"));
            };
            if takes_value {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                map.insert(key.to_string(), value.clone());
                i += 2;
            } else {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        }
        Ok(Options { map })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    fn design(&self) -> Result<Option<DtmbKind>, String> {
        spec::parse_design_token(self.map.get("design").map(String::as_str))
    }

    /// The `--scheme` shape, range-checked by the rule serve applies.
    fn scheme(&self) -> Result<SchemeChoice, String> {
        let choice = match spec::parse_scheme_token(self.map.get("scheme").map(String::as_str))? {
            SchemeKind::HexDtmb => SchemeChoice::HexDtmb {
                design: self.design()?,
                primaries: self.get("primaries", 100)?,
            },
            SchemeKind::SquareDtmb => SchemeChoice::SquareDtmb {
                pattern: spec::parse_pattern_token(self.map.get("pattern").map(String::as_str))?,
                width: self.get("width", 16)?,
                height: self.get("height", 16)?,
            },
            SchemeKind::SpareRows => SchemeChoice::SpareRows {
                width: self.get("width", 8)?,
                module_rows: self.get("module-rows", 6)?,
                spare_rows: self.get("spare-rows", 1)?,
            },
        };
        choice.validate(ParamStyle::Cli)?;
        Ok(choice)
    }

    /// `--trials`, which must be at least 1.
    fn trials(&self, default: u32) -> Result<u32, String> {
        match self.get("trials", default)? {
            0 => Err("--trials must be at least 1".into()),
            n => Ok(n),
        }
    }

    fn assay(&self) -> Result<Option<AssayPanel>, String> {
        match self.map.get("assay") {
            None => Ok(None),
            Some(v) => v.parse().map(Some),
        }
    }

    fn estimator(&self) -> Result<Estimator, String> {
        match spec::parse_estimator_token(self.map.get("estimator").map(String::as_str))? {
            EstimatorKind::Naive => Ok(Estimator::Naive),
            EstimatorKind::Stratified => Ok(Estimator::Stratified(self.stratified_config()?)),
        }
    }

    /// Tuning for the stratified estimator (`--tolerance`, `--pilot`).
    fn stratified_config(&self) -> Result<StratifiedConfig, String> {
        spec::stratified_config(
            ParamStyle::Cli,
            self.get("tolerance", 1e-6)?,
            self.get("pilot", 64)?,
        )
    }

    fn defect_model(&self) -> Result<DefectModel, String> {
        match spec::parse_defect_model_token(self.map.get("defect-model").map(String::as_str))? {
            DefectModelKind::Bernoulli => Ok(DefectModel::Bernoulli),
            DefectModelKind::Clustered => spec::clustered_defects(
                ParamStyle::Cli,
                self.get("cluster-mean", 1.0)?,
                self.get("cluster-dispersion", 1)?,
                self.get("cluster-radius", 2)?,
                self.get("cluster-peak", 0.8)?,
            )
            .map(DefectModel::Clustered),
        }
    }

    /// Presence check keyed by the canonical (underscore) parameter name
    /// the shared [`dmfb_core::spec`] guards use; CLI flags spell it with
    /// dashes.
    fn has_param(&self, key: &str) -> bool {
        self.flag(&key.replace('_', "-"))
    }

    fn biochip(&self) -> Result<Biochip, String> {
        // 0 = one worker per available core (the default).
        let threads: usize = self.get("threads", 0)?;
        let chip = self
            .scheme()?
            .biochip()
            .ok_or("this command models hexagonal arrays only")?;
        Ok(chip.with_threads(threads))
    }
}

/// Renders a canonical (underscore) parameter name as its CLI flag
/// spelling for diagnostics that enumerate the shared tables.
fn dash(key: &str) -> String {
    key.replace('_', "-")
}

/// Parses `--estimator` and `--defect-model`, rejecting sub-parameters
/// that the selected estimator or model would silently ignore, and the
/// one combination that is statistically incoherent (stratified +
/// clustered). The rules live in [`dmfb_core::spec`], shared with the
/// serve validator.
fn estimator_and_model(opts: &Options) -> Result<(Estimator, DefectModel), String> {
    let (estimator, model) = (opts.estimator()?, opts.defect_model()?);
    spec::reject_foreign_estimator_params(
        ParamStyle::Cli,
        estimator.kind(),
        model.kind(),
        |key| opts.has_param(key),
    )?;
    Ok((estimator, model))
}

/// What `yield`/`sweep` build: the IVD case-study chip under `--assay`,
/// otherwise the `--scheme` shape — rejecting the sub-parameters the
/// selection would silently ignore.
fn engine_spec(opts: &Options, choice: SchemeChoice) -> Result<EngineSpec, String> {
    let Some(panel) = opts.assay()? else {
        reject_foreign_subparams(opts, &choice)?;
        return Ok(EngineSpec::Scheme(choice));
    };
    check_assay_subparams(opts, &choice)?;
    Ok(EngineSpec::Assay(panel))
}

/// Rejects scheme sub-parameters that the selected scheme would silently
/// ignore (`yield --pattern checkerboard` without `--scheme square-dtmb`
/// would otherwise run hex and mislabel what was measured). The rule
/// lives in [`dmfb_core::spec`], shared with the serve validator.
fn reject_foreign_subparams(opts: &Options, choice: &SchemeChoice) -> Result<(), String> {
    spec::reject_foreign_subparams(ParamStyle::Cli, choice, |key| opts.has_param(key))
}

/// Validates an `--assay` request: hexagonal scheme only (the IVD
/// case-study chip is a hex DTMB(2,6) array), and since the assay workload
/// *fixes* the chip, every array-shaping sub-parameter is rejected rather
/// than silently ignored — the same discipline as
/// [`reject_foreign_subparams`], shared through [`dmfb_core::spec`].
fn check_assay_subparams(opts: &Options, choice: &SchemeChoice) -> Result<(), String> {
    spec::check_assay_subparams(
        ParamStyle::Cli,
        matches!(choice, SchemeChoice::HexDtmb { .. }),
        |key| opts.has_param(key),
    )
}

/// Rejects a non-hex `--scheme` (and stray non-hex sub-parameters) on
/// commands that only model hexagonal arrays (faults, render, assay,
/// profile) — silently running hex under a square-dtmb/spare-rows label
/// would misattribute the numbers. The same commands run fixed workloads
/// that `--assay` does not parameterise, so it is rejected too.
fn require_hex_scheme(opts: &Options) -> Result<(), String> {
    if opts.flag("assay") {
        return Err("--assay is supported by yield, sweep and bench only".into());
    }
    reject_query_params(opts)?;
    let choice = opts.scheme()?;
    if matches!(choice, SchemeChoice::HexDtmb { .. }) {
        reject_foreign_subparams(opts, &choice)
    } else {
        Err("this command models hexagonal arrays only; \
             --scheme square-dtmb/spare-rows is supported by yield, sweep and bench"
            .into())
    }
}

/// Rejects the estimator and defect-model parameters on commands that
/// run no yield query of their own.
fn reject_query_params(opts: &Options) -> Result<(), String> {
    if opts.flag("estimator") || opts.flag("defect-model") {
        return Err("--estimator/--defect-model are supported by yield and sweep only".into());
    }
    for key in spec::ESTIMATOR_SUBPARAMS
        .iter()
        .chain(&spec::CLUSTER_SUBPARAMS)
    {
        if opts.has_param(key) {
            return Err(format!(
                "--{} is an estimator/defect-model sub-parameter; \
                 it is supported by yield and sweep only",
                dash(key)
            ));
        }
    }
    Ok(())
}

/// Prints the hex design header line shared by every `dmfb yield`
/// report variant; `rr` appends the redundancy-ratio column when known.
fn print_design_header(chip: &Biochip, rr: Option<f64>) {
    let design = chip
        .array()
        .kind()
        .map_or("none".to_string(), |k| k.to_string());
    let (primaries, spares) = (chip.array().primary_count(), chip.array().spare_count());
    match rr {
        Some(rr) => {
            outln!("design: {design} | primaries {primaries} | spares {spares} | RR {rr:.4}")
        }
        None => outln!("design: {design} | primaries {primaries} | spares {spares}"),
    }
}

/// A stratified estimate's effective-sample count, `inf` when exact.
fn eff_samples(est: &StratifiedEstimate) -> String {
    let eff = est.effective_trials();
    if eff.is_finite() {
        format!("{eff:.0}")
    } else {
        "inf".to_string()
    }
}

/// Prints one tier's estimate line; stratified estimates add their
/// rare-event bookkeeping.
fn print_estimate(name: &str, estimate: &Estimate) {
    match estimate {
        Estimate::Naive(e) => {
            let (lo, hi) = e.wilson95();
            outln!(
                "{name}: {:.4}  (95% CI [{lo:.4}, {hi:.4}], {} trials)",
                e.point(),
                e.trials()
            );
        }
        Estimate::Stratified(e) => {
            let (lo, hi) = e.ci95();
            outln!(
                "{name}: {:.6}  (95% CI [{lo:.6}, {hi:.6}], {} trials over {} strata)",
                e.point,
                e.trials,
                e.strata.len()
            );
            let eff = e.effective_trials();
            outln!(
                "  std error {:.3e} | truncated mass {:.1e} | effective samples {} ({}x speed-up)",
                e.std_error(),
                e.truncated_mass,
                eff_samples(e),
                if eff.is_finite() {
                    format!("{:.1}", eff / e.trials.max(1) as f64)
                } else {
                    "inf".to_string()
                }
            );
        }
    }
}

/// Prints the clustered defect model line with its full parameter set.
fn print_cluster(cluster: &ClusteredDefects, region: &Region) {
    outln!(
        "defect model      : clustered (mean {:.2} clusters, dispersion {}, \
         radius {}, peak {:.2}; ~{:.2} expected failures/chip)",
        cluster.mean_clusters(),
        cluster.dispersion(),
        cluster.spread_radius(),
        cluster.peak_probability(),
        cluster.expected_failures_in(region)
    );
}

fn cmd_yield(opts: &Options) -> Result<(), String> {
    let p: f64 = opts.get("p", 0.95)?;
    if !(0.0..=1.0).contains(&p) {
        return Err("need 0 <= p <= 1".into());
    }
    let trials = opts.trials(10_000)?;
    let seed: u64 = opts.get("seed", 1)?;
    let choice = opts.scheme()?;
    let (estimator, defect_model) = estimator_and_model(opts)?;
    if matches!(defect_model, DefectModel::Clustered(_)) && opts.flag("p") {
        return Err(spec::clustered_p_error(ParamStyle::Cli));
    }
    let spec = engine_spec(opts, choice)?;
    let engine = Engine::build(&spec, opts.get("threads", 0)?);
    let query = Query {
        estimator,
        defect_model,
        p,
        trials,
        seed,
    };
    let tiers = engine.estimate(&query);
    // The paper's default question gets the full hex report.
    let full_report = estimator == Estimator::Naive && defect_model == DefectModel::Bernoulli;

    match (&engine, spec) {
        (Engine::Assay(op), EngineSpec::Assay(panel)) => {
            let chip = op.chip();
            outln!(
                "assay: {} ({} measurements) | chip: DTMB(2,6) IVD case study | \
                 {} primaries + {} spares | {} assay cells",
                panel.label(),
                panel.batch().requests.len(),
                chip.array.primary_count(),
                chip.array.spare_count(),
                chip.assay_cells.len()
            );
            outln!(
                "timing budget     : {:.1}s protocol makespan",
                op.budget().max_makespan_s
            );
        }
        (Engine::Hex { chip, .. }, _) => {
            print_design_header(chip, full_report.then(|| chip.array().redundancy_ratio()));
        }
        (Engine::Square { engine, .. }, _) => outln!(
            "scheme: {} | units {} | spare resources {}",
            engine.label(),
            engine.evaluator().unit_count(),
            engine.evaluator().resource_count()
        ),
        (Engine::Assay(_), EngineSpec::Scheme(_)) => unreachable!("assay engines have assay specs"),
    }
    match (defect_model, &engine) {
        (DefectModel::Bernoulli, _) => outln!("survival p        : {p:.4}"),
        (DefectModel::Clustered(cluster), Engine::Square { region, .. }) => outln!(
            "defect model      : clustered (~{:.2} expected failures/chip)",
            cluster.expected_failures_in(region)
        ),
        (DefectModel::Clustered(cluster), Engine::Hex { chip, .. }) => {
            print_cluster(&cluster, chip.array().region());
        }
        (DefectModel::Clustered(cluster), Engine::Assay(op)) => {
            print_cluster(&cluster, op.chip().array.region());
        }
    }
    if let (Engine::Hex { chip, engine, .. }, [(_, Estimate::Naive(reconfigured))], true) =
        (&engine, tiers.as_slice(), full_report)
    {
        let r = chip.yield_report_from(engine, p, *reconfigured);
        outln!(
            "raw yield         : {:.4}  (exact: p^n over n = {} in-scope primaries)",
            r.raw_yield,
            engine.evaluator().unit_count()
        );
        outln!("reconfigured yield: {}", r.reconfigured_yield);
        outln!("effective yield   : {:.4}", r.effective_yield);
        if let Some(a) = r.analytical {
            outln!("analytical        : {a:.4}");
        }
        return Ok(());
    }
    for (tier, estimate) in &tiers {
        print_estimate(
            &format!("{:<18}", format!("{} yield", tier.label())),
            estimate,
        );
    }
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let from: f64 = opts.get("from", 0.90)?;
    let to: f64 = opts.get("to", 1.00)?;
    let steps: usize = opts.get("steps", 11)?;
    let trials = opts.trials(10_000)?;
    let seed: u64 = opts.get("seed", 1)?;
    if steps < 2 || !(0.0..=1.0).contains(&from) || !(0.0..=1.0).contains(&to) || from >= to {
        return Err("need 0 <= from < to <= 1 and steps >= 2".into());
    }
    let effective = opts.flag("effective");
    let batched = opts.flag("batched");
    let ps: Vec<f64> = (0..steps)
        .map(|i| from + (to - from) * i as f64 / (steps - 1) as f64)
        .collect();
    let choice = opts.scheme()?;
    let (estimator, defect_model) = estimator_and_model(opts)?;
    if matches!(defect_model, DefectModel::Clustered(_)) {
        return Err(
            "--defect-model clustered has no survival probability to sweep; \
             use dmfb yield --defect-model clustered for a point estimate"
                .into(),
        );
    }
    let stratified = matches!(estimator, Estimator::Stratified(_));
    if stratified && batched {
        return Err(
            "--batched does not apply with --estimator stratified: the stratified \
             estimator allocates its trial budget per grid point"
                .into(),
        );
    }
    let spec = engine_spec(opts, choice)?;
    match spec {
        EngineSpec::Assay(_) => {
            if effective {
                return Err("--effective does not apply with --assay".into());
            }
            if batched {
                return Err(
                    "--batched does not apply with --assay: the operational sweep always \
                     shares each trial's random chip across the whole grid"
                        .into(),
                );
            }
        }
        // The effective-yield column is a hex-array metric.
        EngineSpec::Scheme(SchemeChoice::HexDtmb { .. }) => {}
        EngineSpec::Scheme(_) if effective => {
            return Err("--effective requires --scheme hex-dtmb".into());
        }
        EngineSpec::Scheme(_) => {}
    }
    let engine = Engine::build(&spec, opts.get("threads", 0)?);
    let rows = engine.sweep(&estimator, &ps, trials, seed, batched);
    let prec = p_decimals(&ps);

    let ey = |y: f64| match &engine {
        Engine::Hex { chip, .. } if effective => {
            format!(",{:.4}", effective::effective_yield_of(chip.array(), y))
        }
        _ => String::new(),
    };
    let ey_head = if effective { ",effective_yield" } else { "" };
    match (&engine, stratified) {
        (Engine::Assay(_), false) => outln!("p,raw,reconfigured,operational,op_ci_lo,op_ci_hi"),
        (Engine::Assay(_), true) => {
            outln!("p,raw,reconfigured,operational,op_std_err,op_eff_samples")
        }
        (_, false) => outln!("p,yield,ci_lo,ci_hi{ey_head}"),
        (_, true) => outln!("p,yield,ci_lo,ci_hi,std_err,eff_samples{ey_head}"),
    }
    for (p, tiers) in &rows {
        match tiers.as_slice() {
            [(_, Estimate::Naive(y))] => {
                let (lo, hi) = y.wilson95();
                outln!(
                    "{p:.prec$},{:.4},{lo:.4},{hi:.4}{}",
                    y.point(),
                    ey(y.point())
                );
            }
            [(_, Estimate::Stratified(y))] => {
                let (lo, hi) = y.ci95();
                outln!(
                    "{p:.prec$},{:.6},{lo:.6},{hi:.6},{:.3e},{}{}",
                    y.point,
                    y.std_error(),
                    eff_samples(y),
                    ey(y.point)
                );
            }
            [(_, Estimate::Naive(raw)), (_, Estimate::Naive(rec)), (_, Estimate::Naive(op))] => {
                let (lo, hi) = op.wilson95();
                outln!(
                    "{p:.prec$},{:.4},{:.4},{:.4},{lo:.4},{hi:.4}",
                    raw.point(),
                    rec.point(),
                    op.point()
                );
            }
            [(_, Estimate::Stratified(raw)), (_, Estimate::Stratified(rec)), (_, Estimate::Stratified(op))] =>
            {
                outln!(
                    "{p:.prec$},{:.6},{:.6},{:.6},{:.3e},{}",
                    raw.point,
                    rec.point,
                    op.point,
                    op.std_error(),
                    eff_samples(op)
                );
            }
            _ => unreachable!("engines answer one tier, or three for the assay stack"),
        }
    }
    Ok(())
}

/// Decimals for a sweep's `p` column: the fewest, at least 4, that print
/// consecutive grid points distinctly, so a fine grid never repeats a row
/// label. Capped at 17, past any grid step worth sweeping.
fn p_decimals(ps: &[f64]) -> usize {
    (4..17)
        .find(|&prec| {
            ps.windows(2)
                .all(|w| format!("{:.prec$}", w[0]) != format!("{:.prec$}", w[1]))
        })
        .unwrap_or(17)
}

/// Rejects every parameter that `dmfb search` does not take: the search
/// enumerates the scheme space itself, always scores with the stratified
/// estimator under i.i.d. Bernoulli defects (the exact pruning bound
/// requires it).
fn check_search_params(opts: &Options) -> Result<(), String> {
    if opts.flag("scheme") {
        return Err("--scheme does not apply to search: the search enumerates \
             every scheme family itself (cap the space with --max-primaries/--max-dim)"
            .into());
    }
    for key in spec::SCHEME_SUBPARAMS {
        if opts.has_param(key) {
            return Err(format!(
                "--{} does not apply to search: the search enumerates the \
                 candidate space itself (cap it with --max-primaries/--max-dim)",
                dash(key)
            ));
        }
    }
    if opts.flag("estimator") {
        return Err("--estimator does not apply to search: candidate scoring \
             always runs the stratified estimator (tune it with --tolerance/--pilot)"
            .into());
    }
    if opts.flag("defect-model") {
        return Err("--defect-model does not apply to search: the exact \
             Hall-bound pruning conditions on i.i.d. Bernoulli defects"
            .into());
    }
    for key in spec::CLUSTER_SUBPARAMS {
        if opts.has_param(key) {
            return Err(format!(
                "--{} requires --defect-model clustered, which search does not support",
                dash(key)
            ));
        }
    }
    Ok(())
}

/// Writes one frontier row in the `dmfb-search/1` JSON shape.
fn search_row_json(out: &mut String, row: &dmfb_core::CandidateScore, target: f64) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"spec\": \"{}\", \"overhead\": {:.6}, \"yield\": {:.6}, \
         \"ci_lo\": {:.6}, \"ci_hi\": {:.6}, \"primary_cells\": {}, \
         \"spare_cells\": {}, \"trials\": {}, \"meets_target\": {}}}",
        row.spec,
        row.overhead,
        row.yield_point.unwrap_or(0.0),
        row.ci_lo,
        row.ci_hi,
        row.primary_cells,
        row.spare_cells,
        row.trials_used,
        row.meets(target)
    );
}

fn cmd_search(opts: &Options) -> Result<(), String> {
    use dmfb_core::search::{run_search, SearchConfig, SearchSpace};
    check_search_params(opts)?;
    if !opts.flag("target-yield") {
        return Err(
            "--target-yield <Y> is required (the yield the cheapest candidate must reach)".into(),
        );
    }
    let target: f64 = opts.get("target-yield", 0.0)?;
    if !(target > 0.0 && target <= 1.0) {
        return Err("need 0 < --target-yield <= 1".into());
    }
    let assay = opts.assay()?;
    // `--assay` alone implies the operational tier (the panel is what the
    // tier scores); an explicit raw/reconfigured tier contradicts it.
    let tier = match (opts.map.get("tier").map(String::as_str), assay) {
        (None, Some(_)) => spec::Tier::Operational,
        (token, _) => spec::Tier::parse(token)?,
    };
    match (tier, assay) {
        (spec::Tier::Operational, None) => {
            return Err(
                "--tier operational requires --assay (valid: ivd-panel, metabolic-panel)".into(),
            )
        }
        (spec::Tier::Raw | spec::Tier::Reconfigured, Some(_)) => {
            return Err(format!(
                "--assay scores the operational tier; it cannot combine with --tier {}",
                tier.label()
            ))
        }
        _ => {}
    }
    let p: f64 = opts.get("p", 0.95)?;
    if !(0.0..=1.0).contains(&p) {
        return Err("need 0 <= p <= 1".into());
    }
    let trials = opts.trials(4_000)?;
    let max_primaries: usize = opts.get("max-primaries", 100)?;
    if max_primaries == 0 || max_primaries > spec::MAX_PRIMARIES {
        return Err(format!(
            "need 1 <= --max-primaries <= {}, got {max_primaries}",
            spec::MAX_PRIMARIES
        ));
    }
    let max_dim: u32 = opts.get("max-dim", 16)?;
    if max_dim == 0 || max_dim > spec::MAX_DIM {
        return Err(format!(
            "need 1 <= --max-dim <= {}, got {max_dim}",
            spec::MAX_DIM
        ));
    }
    if opts.flag("json") && opts.flag("csv") {
        return Err("--json and --csv are mutually exclusive".into());
    }
    let config = SearchConfig {
        target_yield: target,
        tier,
        assay,
        p,
        trials,
        seed: opts.get("seed", 1)?,
        threads: opts.get("threads", 0)?,
        space: SearchSpace {
            max_primaries,
            max_dim,
        },
        stratified: opts.stratified_config()?,
    };
    let report = run_search(&config);

    if opts.flag("csv") {
        outln!("spec,overhead,yield,ci_lo,ci_hi,primary_cells,spare_cells,trials,meets_target");
        for row in &report.frontier {
            outln!(
                "{},{:.6},{:.6},{:.6},{:.6},{},{},{},{}",
                row.spec,
                row.overhead,
                row.yield_point.unwrap_or(0.0),
                row.ci_lo,
                row.ci_hi,
                row.primary_cells,
                row.spare_cells,
                row.trials_used,
                row.meets(target)
            );
        }
        return Ok(());
    }
    if opts.flag("json") {
        let mut rows = String::new();
        for (i, row) in report.frontier.iter().enumerate() {
            if i > 0 {
                rows.push_str(", ");
            }
            search_row_json(&mut rows, row, target);
        }
        let assay_json = report
            .assay
            .map_or("null".to_string(), |panel| format!("\"{}\"", panel.label()));
        let best_json = report
            .best()
            .map_or("null".to_string(), |row| format!("\"{}\"", row.spec));
        outln!(
            "{{\"schema\": \"dmfb-search/1\", \"target_yield\": {:.6}, \
             \"tier\": \"{}\", \"assay\": {}, \"p\": {:.6}, \"trials\": {}, \
             \"seed\": {}, \"candidates\": {}, \"pruned\": {}, \"evaluated\": {}, \
             \"trials_used\": {}, \"naive_trials\": {}, \"frontier\": [{}], \
             \"best\": {}}}",
            report.target_yield,
            report.tier.label(),
            assay_json,
            report.p,
            report.trials,
            report.seed,
            report.candidates,
            report.pruned,
            report.evaluated,
            report.trials_used,
            report.naive_trials,
            rows,
            best_json
        );
        return Ok(());
    }

    outln!(
        "search: target {} yield {:.4} at p {:.4}",
        report.tier.label(),
        report.target_yield,
        report.p
    );
    outln!(
        "space : {} candidates | pruned {} (exact Hall bound, no trials) | evaluated {}",
        report.candidates,
        report.pruned,
        report.evaluated
    );
    let saved = report.naive_trials as f64 / report.trials_used.max(1) as f64;
    outln!(
        "cost  : {} stratified trials vs {} naive 40k-per-candidate ({saved:.1}x saved)",
        report.trials_used,
        report.naive_trials
    );
    outln!();
    outln!("frontier (non-dominated, ascending overhead):");
    outln!(
        "  {:<52} {:>9} {:>8}  {:<18} {:>6}",
        "spec",
        "overhead",
        "yield",
        "95% CI",
        "meets"
    );
    for row in &report.frontier {
        outln!(
            "  {:<52} {:>9.4} {:>8.4}  [{:.4}, {:.4}]   {:>6}",
            row.spec,
            row.overhead,
            row.yield_point.unwrap_or(0.0),
            row.ci_lo,
            row.ci_hi,
            if row.meets(target) { "yes" } else { "no" }
        );
    }
    outln!();
    match report.best() {
        Some(row) => outln!(
            "best  : {} (overhead {:.4}, yield {:.4})",
            row.spec,
            row.overhead,
            row.yield_point.unwrap_or(0.0)
        ),
        None => outln!(
            "best  : no enumerated candidate reaches yield {:.4} — widen the space \
             with --max-primaries/--max-dim or lower the target",
            report.target_yield
        ),
    }
    Ok(())
}

fn cmd_bench(opts: &Options) -> Result<(), String> {
    // Bench runs a fixed per-scheme workload suite so BENCH_*.json
    // artifacts stay comparable across runs; silently ignoring scheme
    // sub-parameters would mislabel what was measured.
    for key in spec::SCHEME_SUBPARAMS {
        if opts.has_param(key) {
            return Err(format!(
                "--{} is not supported by bench: it runs a fixed workload \
                 suite per --scheme (use yield/sweep for custom arrays)",
                dash(key)
            ));
        }
    }
    // Likewise the estimator/defect-model knobs: the suite pins both per
    // workload (including the naive-vs-stratified rare-event pair) so the
    // perf trajectory stays comparable.
    for key in ["estimator", "defect_model"]
        .iter()
        .chain(&spec::ESTIMATOR_SUBPARAMS)
        .chain(&spec::CLUSTER_SUBPARAMS)
    {
        if opts.has_param(key) {
            return Err(format!(
                "--{} is not supported by bench: the workload suite pins the \
                 estimator and defect model per entry (use yield/sweep instead)",
                dash(key)
            ));
        }
    }
    let assay = opts.assay()?;
    if assay.is_some() && !matches!(opts.scheme()?, SchemeChoice::HexDtmb { .. }) {
        return Err(
            "--assay requires --scheme hex-dtmb (the IVD case-study chip is hexagonal)".into(),
        );
    }
    let search = opts.flag("search");
    if search && (assay.is_some() || opts.flag("scheme")) {
        return Err("--search is its own bench suite; it does not combine with \
             --scheme or --assay (the search scorer covers both tiers itself)"
            .into());
    }
    let quick = opts.flag("quick");
    let default_label = if search {
        "search".to_string()
    } else {
        if quick { "quick" } else { "full" }.to_string()
    };
    let config = bench_cmd::BenchConfig {
        quick,
        threads: opts.get("threads", 0)?,
        json: opts.flag("json"),
        out_dir: opts.get("out", ".".to_string())?,
        label: opts.get("label", default_label)?,
        scheme: opts.scheme()?,
        assay,
        search,
    };
    // Check the report's destination before the suite runs, not after.
    if config.json && !std::path::Path::new(&config.out_dir).is_dir() {
        return Err(format!(
            "--out '{}' is not an existing directory",
            config.out_dir
        ));
    }
    if let Some(baseline) = opts.map.get("compare") {
        let (report, rendered, regressed) = bench_cmd::run_compare(&config, baseline)?;
        out!("{}", bench_cmd::render_table(&report));
        if config.json {
            let path = report
                .write_to_dir(std::path::Path::new(&config.out_dir))
                .map_err(|e| format!("cannot write bench report: {e}"))?;
            outln!("wrote {}", path.display());
        }
        out!("{rendered}");
        if !regressed.is_empty() {
            return Err(format!(
                "perf gate failed against baseline '{baseline}': {} workload(s) \
                 regressed or vanished: {}",
                regressed.len(),
                regressed.join(", ")
            ));
        }
        return Ok(());
    }
    let report = bench_cmd::run(&config);
    out!("{}", bench_cmd::render_table(&report));
    if config.json {
        let path = report
            .write_to_dir(std::path::Path::new(&config.out_dir))
            .map_err(|e| format!("cannot write bench report: {e}"))?;
        outln!("wrote {}", path.display());
    }
    Ok(())
}

/// Rejects yield-request parameters on the daemon commands: `serve`
/// takes them per request in the `POST /v1/yield` body, and `soak` runs
/// a fixed workload mix. Silently ignoring them would suggest the flag
/// configured the daemon when it configured nothing.
fn reject_per_request_params(opts: &Options, command: &str, hint: &str) -> Result<(), String> {
    for key in ["scheme", "estimator", "defect-model", "assay", "p"]
        .iter()
        .chain(&spec::ESTIMATOR_SUBPARAMS)
        .chain(&spec::CLUSTER_SUBPARAMS)
    {
        if opts.has_param(key) {
            return Err(format!(
                "--{} is not supported by {command}: {hint}",
                dash(key)
            ));
        }
    }
    Ok(())
}

/// Rejects every parameter `dmfb campaign` would otherwise silently
/// ignore: the workload fixes the chip to the DTMB(2,6) IVD case-study
/// layout (so scheme/array parameters do not apply), runs the plain
/// Monte-Carlo tier only (no estimator/defect-model sub-parameters).
fn check_campaign_subparams(opts: &Options) -> Result<(), String> {
    if !matches!(opts.scheme()?, SchemeChoice::HexDtmb { .. }) {
        return Err(
            "campaigns replay hex scenario scripts on the IVD case-study chip; \
             --scheme square-dtmb/spare-rows does not apply"
                .into(),
        );
    }
    for key in spec::SCHEME_SUBPARAMS {
        if opts.has_param(key) {
            return Err(format!(
                "--{} does not apply to campaign: the campaign workload fixes the \
                 chip to the DTMB(2,6) IVD case-study layout",
                dash(key)
            ));
        }
    }
    reject_query_params(opts)
}

fn cmd_campaign(opts: &Options) -> Result<(), String> {
    check_campaign_subparams(opts)?;
    if opts.flag("list") {
        out!("{}", campaign_cmd::list());
        return Ok(());
    }
    let scenario = match (opts.map.get("name"), opts.map.get("script")) {
        (Some(_), Some(_)) => {
            return Err("--name and --script are mutually exclusive".into());
        }
        (None, None) => {
            return Err("campaign needs --name <campaign> or --script <file> \
                 (dmfb campaign --list shows the built-ins)"
                .into());
        }
        (Some(name), None) => named_campaign(name).ok_or_else(|| {
            let names: Vec<&str> = NAMED_CAMPAIGNS.iter().map(|c| c.name).collect();
            format!(
                "unknown campaign '{name}' (available: {})",
                names.join(", ")
            )
        })?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read script '{path}': {e}"))?;
            Scenario::parse(&text).map_err(|e| e.to_string())?
        }
    };
    let p: f64 = opts.get("p", 0.99)?;
    if !(0.0..=1.0).contains(&p) {
        return Err("need 0 <= p <= 1".into());
    }
    let trials = opts.trials(2_000)?;
    let config = campaign_cmd::CampaignConfig {
        panel: opts.assay()?.unwrap_or(AssayPanel::StandardIvd),
        p,
        trials,
        seed: opts.get("seed", 2005)?,
        threads: opts.get("threads", 0)?,
        rehearse: opts.flag("rehearse"),
    };
    out!("{}", campaign_cmd::run(&scenario, &config));
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    reject_per_request_params(
        opts,
        "serve",
        "it is a per-request parameter; send it as a field in the POST /v1/yield body",
    )?;
    for key in spec::SCHEME_SUBPARAMS.iter().chain(&["trials", "seed"]) {
        if opts.has_param(key) {
            return Err(format!(
                "--{} is not supported by serve: it is a per-request parameter; \
                 send it as a field in the POST /v1/yield body",
                dash(key)
            ));
        }
    }
    let config = dmfb_serve::ServerConfig {
        addr: opts.get("addr", "127.0.0.1:8750".to_string())?,
        workers: opts.get("workers", 4)?,
        threads: opts.get("threads", 1)?,
        cache_capacity: opts.get("cache-capacity", 32)?,
    };
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let server = dmfb_serve::Server::bind(config.clone())
        .map_err(|e| format!("cannot bind '{}': {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    outln!(
        "dmfb serve: listening on http://{addr} \
         ({} workers, {} engine thread(s), cache capacity {})",
        config.workers,
        config.threads,
        config.cache_capacity
    );
    outln!("endpoints: POST /v1/yield | GET /v1/health | POST /v1/shutdown");
    server.run().map_err(|e| format!("server error: {e}"))
}

fn cmd_soak(opts: &Options) -> Result<(), String> {
    reject_per_request_params(
        opts,
        "soak",
        "the soak drives a fixed cold/warm/mixed workload mix so latency baselines \
         stay comparable (--trials and --primaries size the dtmb26 workload)",
    )?;
    for key in spec::SCHEME_SUBPARAMS {
        if key != "primaries" && opts.has_param(key) {
            return Err(format!(
                "--{} is not supported by soak: the workload mix is fixed \
                 (--primaries sizes the dtmb26 workload)",
                dash(key)
            ));
        }
    }
    let quick = opts.flag("quick");
    let config = dmfb_serve::SoakConfig {
        addr: opts.get("addr", "127.0.0.1:8750".to_string())?,
        requests: opts.get("requests", if quick { 48 } else { 160 })?,
        concurrency: opts.get("concurrency", 4)?,
        trials: opts.get("trials", 16)?,
        primaries: opts.get("primaries", 2400)?,
        require_speedup: opts.get("require-speedup", 0.0)?,
        probe_errors: true,
        shutdown: opts.flag("shutdown"),
        label: opts.get("label", "serve".to_string())?,
        quick,
    };
    if config.requests == 0 || config.concurrency == 0 || config.trials == 0 {
        return Err("--requests, --concurrency and --trials must be at least 1".into());
    }
    if !(config.require_speedup >= 0.0 && config.require_speedup.is_finite()) {
        return Err("--require-speedup must be non-negative and finite".into());
    }
    let baseline = opts.map.get("compare").map(String::as_str);
    let (soak, rendered, failures) = serve_cmd::run_with_gate(&config, baseline)?;
    out!("{}", soak.rendered);
    if opts.flag("json") {
        let out_dir: String = opts.get("out", ".".to_string())?;
        let path = soak
            .report
            .write_to_dir(std::path::Path::new(&out_dir))
            .map_err(|e| format!("cannot write soak report: {e}"))?;
        outln!("wrote {}", path.display());
    }
    if let Some(rendered) = rendered {
        out!("{rendered}");
    }
    if !failures.is_empty() {
        return Err(format!(
            "soak gate failed: {} issue(s):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    outln!(
        "soak clean: {} requests/phase over {} connections against {}",
        config.requests,
        config.concurrency,
        config.addr
    );
    Ok(())
}

fn cmd_faults(opts: &Options) -> Result<(), String> {
    require_hex_scheme(opts)?;
    let trials = opts.trials(10_000)?;
    let seed: u64 = opts.get("seed", 1)?;
    let max_m: usize = opts.get("max-m", 40)?;
    let chip = if opts.flag("casestudy") {
        let description = ivd_dtmb26_chip();
        let policy = if opts.flag("all-primaries") {
            ReconfigPolicy::AllPrimaries
        } else {
            used_cells_policy(&description)
        };
        Biochip::from_array(description.array).with_policy(policy)
    } else {
        opts.biochip()?
    };
    let cells = chip.array().region().len();
    if max_m > cells {
        return Err(format!(
            "need --max-m <= {cells} (the chip's cell count), got {max_m}"
        ));
    }
    outln!("m,yield,ci_lo,ci_hi");
    for m in 0..=max_m {
        let est = chip.exact_fault_yield(m, trials, seed.wrapping_add(m as u64));
        let (lo, hi) = est.wilson95();
        outln!("{m},{:.4},{lo:.4},{hi:.4}", est.point());
    }
    Ok(())
}

fn cmd_render(opts: &Options) -> Result<(), String> {
    require_hex_scheme(opts)?;
    let chip = opts.biochip()?;
    let p: f64 = opts.get("inject", 1.0)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("need 0 <= --inject <= 1, got {p}"));
    }
    let seed: u64 = opts.get("seed", 1)?;
    let array = chip.array();
    let mut rng = StdRng::seed_from_u64(seed);
    let defects = Bernoulli::from_survival(p).inject(array.region(), &mut rng);
    let plan = attempt_reconfiguration(array, &defects, chip.policy());
    let art = render::hex(array.region(), |c| {
        glyph(array, &defects, plan.as_ref().ok(), c)
    });
    outln!("legend: . primary  o spare  X faulty primary  x faulty spare  R replacing spare");
    out!("{art}");
    match &plan {
        Ok(plan) if defects.fault_count() > 0 => {
            outln!("reconfiguration OK: {} replacement(s)", plan.len());
        }
        Ok(_) => outln!("fault-free"),
        Err(failure) => outln!("{failure}"),
    }
    Ok(())
}

fn glyph(
    array: &DefectTolerantArray,
    defects: &DefectMap,
    plan: Option<&ReconfigPlan>,
    cell: HexCoord,
) -> char {
    let faulty = defects.is_faulty(cell);
    let spare = array.is_spare(cell);
    let replacing = plan.is_some_and(|p| p.spares_used().any(|s| s == cell));
    match (spare, faulty, replacing) {
        (true, true, _) => 'x',
        (true, false, true) => 'R',
        (true, false, false) => 'o',
        (false, true, _) => 'X',
        (false, false, _) => '.',
    }
}

fn cmd_assay(opts: &Options) -> Result<(), String> {
    require_hex_scheme(opts)?;
    let m: usize = opts.get("faults", 0)?;
    let seed: u64 = opts.get("seed", 42)?;
    let chip = ivd_dtmb26_chip();
    let cells = chip.array.region().len();
    if m > cells {
        return Err(format!(
            "need --faults <= {cells} (the chip's cell count), got {m}"
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut defects = ExactCount::new(m).inject(chip.array.region(), &mut rng);
    defects.close_shorts();
    let policy = used_cells_policy(&chip);
    let plan = attempt_reconfiguration(&chip.array, &defects, &policy)
        .map_err(|e| format!("chip cannot be reconfigured: {e}"))?;
    outln!(
        "chip: {} primaries + {} spares, {} assay cells, {} injected fault(s), {} replacement(s)",
        chip.array.primary_count(),
        chip.array.spare_count(),
        chip.assay_cells.len(),
        defects.fault_count(),
        plan.len()
    );
    let ey = effective::effective_yield_of(&chip.array, 1.0);
    let exec = Executor::new(chip, defects, Some(plan));
    let outcomes = exec
        .run(&MultiplexedIvd::standard_panel(), &mut rng)
        .map_err(|e| e.to_string())?;
    outln!("assay         sample    true mM  measured mM  error%  moves  done@s");
    for o in &outcomes {
        outln!(
            "{:<12}  {:<8}  {:>7.3}  {:>11.3}  {:>5.1}%  {:>5}  {:>6.1}",
            o.request.analyte.to_string(),
            o.request.sample_port,
            o.true_concentration_mm,
            o.measured_concentration_mm,
            100.0 * o.relative_error(),
            o.transport_moves,
            o.completion_time_s
        );
    }
    outln!("(array effective-yield scale factor n/N = {ey:.4})");
    Ok(())
}

fn cmd_profile(opts: &Options) -> Result<(), String> {
    require_hex_scheme(opts)?;
    let trials = opts.trials(2_000)?;
    let seed: u64 = opts.get("seed", 1)?;
    let (array, policy, label) = if opts.flag("casestudy") {
        let chip = ivd_dtmb26_chip();
        let policy = used_cells_policy(&chip);
        (chip.array, policy, "IVD case-study chip".to_string())
    } else {
        let chip = opts.biochip()?;
        let label = chip
            .array()
            .kind()
            .map_or("no-redundancy".to_string(), |k| k.to_string());
        (chip.array().clone(), chip.policy().clone(), label)
    };
    let profile = tolerance_profile(&array, &policy, trials, seed);
    outln!(
        "{label}: {} primaries + {} spares, {trials} trials",
        array.primary_count(),
        array.spare_count()
    );
    outln!(
        "tolerated faults: mean {:.1}, sd {:.1}, min {:.0}, max {:.0}",
        profile.stats.mean(),
        profile.stats.stddev(),
        profile.stats.min(),
        profile.stats.max()
    );
    for level in [0.99, 0.95, 0.90, 0.50] {
        outln!(
            "  P(tolerate >= m) >= {level:.2} up to m = {}",
            profile.quantile_at_least(level)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn p_column_widens_only_for_fine_grids() {
        let default: Vec<f64> = (0..11).map(|i| 0.9 + 0.01 * f64::from(i)).collect();
        assert_eq!(p_decimals(&default), 4);
        assert_eq!(p_decimals(&[0.5]), 4);
        assert_eq!(p_decimals(&[0.9999, 0.99991, 1.0]), 5);
        assert_eq!(p_decimals(&[0.5, 0.5 + 1e-9]), 9);
        // Points no decimal count separates stop at the cap.
        assert_eq!(p_decimals(&[0.5, 0.5]), 17);
    }

    #[test]
    fn parses_key_values_and_flags() {
        let o = opts(&["--p", "0.95", "--effective", "--trials", "500"]);
        assert_eq!(o.get::<f64>("p", 0.0).unwrap(), 0.95);
        assert_eq!(o.get::<u32>("trials", 0).unwrap(), 500);
        assert!(o.flag("effective"));
        assert!(!o.flag("casestudy"));
        // Defaults when absent.
        assert_eq!(o.get::<u64>("seed", 9).unwrap(), 9);
    }

    #[test]
    fn campaign_rejects_foreign_parameters() {
        for (args, needle) in [
            (&["--scheme", "square-dtmb"][..], "IVD case-study chip"),
            (&["--design", "dtmb44"][..], "fixes the chip"),
            (&["--primaries", "100"][..], "fixes the chip"),
            (&["--estimator", "stratified"][..], "yield and sweep only"),
            (&["--tolerance", "1e-6"][..], "sub-parameter"),
            (&["--cluster-mean", "2"][..], "sub-parameter"),
        ] {
            let err = check_campaign_subparams(&opts(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        assert!(check_campaign_subparams(&opts(&["--p", "0.99", "--rehearse"])).is_ok());
    }

    #[test]
    fn rejects_malformed_arguments() {
        let args: Vec<String> = vec!["p".into()];
        assert!(Options::parse(&args).is_err());
        let args: Vec<String> = vec!["--trials".into()];
        assert!(Options::parse(&args).is_err());
        let o = opts(&["--trials", "abc"]);
        assert!(o.get::<u32>("trials", 0).is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        for args in [
            &["--trails", "100"][..],
            &["--bogus"],
            &["--p", "0.9", "--Seed", "3"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = Options::parse(&args)
                .err()
                .expect("unknown option must fail");
            assert!(err.starts_with("unknown option --"), "{err}");
        }
        // The table decides arity: a flag never swallows the next token.
        let o = opts(&["--batched", "--seed", "4"]);
        assert!(o.flag("batched"));
        assert_eq!(o.get::<u64>("seed", 0).unwrap(), 4);
        let names: Vec<&str> = OPTIONS.iter().map(|(name, _)| *name).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        // Every canonical sub-parameter of the shared tables is an option.
        for key in spec::SCHEME_SUBPARAMS
            .iter()
            .chain(&spec::ESTIMATOR_SUBPARAMS)
            .chain(&spec::CLUSTER_SUBPARAMS)
        {
            assert!(names.contains(&dash(key).as_str()), "{key}");
        }
    }

    #[test]
    fn design_names_map_to_kinds() {
        assert_eq!(opts(&[]).design().unwrap(), None);
        assert_eq!(
            opts(&["--design", "dtmb16"]).design().unwrap(),
            Some(DtmbKind::Dtmb16)
        );
        assert_eq!(
            opts(&["--design", "dtmb26b"]).design().unwrap(),
            Some(DtmbKind::Dtmb26B)
        );
        assert_eq!(opts(&["--design", "none"]).design().unwrap(), None);
        assert!(opts(&["--design", "bogus"]).design().is_err());
    }

    #[test]
    fn scheme_parsing() {
        assert!(matches!(
            opts(&[]).scheme().unwrap(),
            SchemeChoice::HexDtmb { .. }
        ));
        assert!(matches!(
            opts(&["--scheme", "hex-dtmb"]).scheme().unwrap(),
            SchemeChoice::HexDtmb { .. }
        ));
        match opts(&[
            "--scheme",
            "square-dtmb",
            "--pattern",
            "stripes",
            "--width",
            "9",
        ])
        .scheme()
        .unwrap()
        {
            SchemeChoice::SquareDtmb {
                pattern,
                width,
                height,
            } => {
                assert_eq!(pattern, SquarePattern::Stripes);
                assert_eq!((width, height), (9, 16));
            }
            _ => panic!("expected square-dtmb"),
        }
        match opts(&["--scheme", "spare-rows", "--spare-rows", "2"])
            .scheme()
            .unwrap()
        {
            SchemeChoice::SpareRows {
                width,
                module_rows,
                spare_rows,
            } => assert_eq!((width, module_rows, spare_rows), (8, 6, 2)),
            _ => panic!("expected spare-rows"),
        }
        assert!(opts(&["--scheme", "nope"]).scheme().is_err());
        assert!(opts(&["--scheme", "square-dtmb", "--pattern", "nope"])
            .scheme()
            .is_err());
    }

    #[test]
    fn foreign_subparams_rejected() {
        // --pattern without --scheme square-dtmb would silently run hex.
        let o = opts(&["--pattern", "checkerboard"]);
        assert!(reject_foreign_subparams(&o, &o.scheme().unwrap()).is_err());
        let o = opts(&["--scheme", "square-dtmb", "--design", "dtmb44"]);
        assert!(reject_foreign_subparams(&o, &o.scheme().unwrap()).is_err());
        let o = opts(&["--scheme", "spare-rows", "--height", "4"]);
        assert!(reject_foreign_subparams(&o, &o.scheme().unwrap()).is_err());
        // Matching sub-parameters pass.
        let o = opts(&[
            "--scheme",
            "square-dtmb",
            "--pattern",
            "stripes",
            "--width",
            "9",
        ]);
        assert!(reject_foreign_subparams(&o, &o.scheme().unwrap()).is_ok());
        let o = opts(&["--design", "dtmb16", "--primaries", "40"]);
        assert!(reject_foreign_subparams(&o, &o.scheme().unwrap()).is_ok());
        let o = opts(&[
            "--scheme",
            "spare-rows",
            "--width",
            "6",
            "--spare-rows",
            "2",
        ]);
        assert!(reject_foreign_subparams(&o, &o.scheme().unwrap()).is_ok());
    }

    #[test]
    fn biochip_construction_respects_options() {
        let chip = opts(&["--design", "dtmb44", "--primaries", "40"])
            .biochip()
            .unwrap();
        assert_eq!(chip.array().primary_count(), 40);
        assert_eq!(chip.array().kind(), Some(DtmbKind::Dtmb44));
        let plain = opts(&["--primaries", "25"]).biochip().unwrap();
        assert_eq!(plain.array().primary_count(), 25);
        assert_eq!(plain.array().kind(), None);
    }
}
