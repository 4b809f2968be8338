//! `dmfb bench` — the performance-reporting suite behind the CI
//! `bench-smoke` job.
//!
//! Runs the Monte-Carlo yield workload through each engine generation —
//! the incremental bitset evaluator (scalar), the word-parallel block pipeline (64 trials per
//! machine word), and the batched whole-curve sweep — for the selected
//! redundancy scheme (`--scheme hex-dtmb | square-dtmb | spare-rows`),
//! and reports wall time plus effective trial throughput. Every scheme
//! rides the same generic engine, so the per-scheme `BENCH_*.json`
//! artifacts are directly comparable. `--json` writes the file in the
//! [`dmfb_bench`] schema (which records the scheme per entry) so CI can
//! archive the numbers and later PRs can compare them.

use crate::SchemeChoice;
use dmfb_bench::{BenchEntry, BenchReport, TextTable, FIG7_9_SURVIVAL_GRID};
use dmfb_core::prelude::*;
use std::time::Instant;

/// Runs the configured suite, then diffs it against the committed
/// baseline report at `baseline_path` with the default 25% normalised
/// regression threshold. Returns the rendered comparison plus the full
/// list of gate failures — every regressed workload and every baseline
/// workload missing from the current run — so the caller can enumerate
/// all of them instead of stopping at the first.
pub fn run_compare(
    config: &BenchConfig,
    baseline_path: &str,
) -> Result<(BenchReport, String, Vec<String>), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline '{baseline_path}': {e}"))?;
    let baseline = dmfb_bench::BenchReport::from_json(text.trim_end())
        .map_err(|e| format!("cannot parse baseline '{baseline_path}': {e}"))?;
    let report = run(config);
    let outcome = dmfb_bench::compare(&baseline, &report, dmfb_bench::DEFAULT_REGRESSION_THRESHOLD);
    let mut failures: Vec<String> = outcome
        .regressions()
        .iter()
        .map(|d| format!("{}/{}", d.scheme, d.name))
        .collect();
    failures.extend(outcome.missing_in_current.iter().cloned());
    Ok((report, outcome.render(), failures))
}

/// Survival probability used for the single-point engine comparisons.
const BENCH_P: f64 = 0.95;

/// Master seed for all bench workloads (throughput, not statistics, is
/// the point — but determinism keeps yield anchors comparable across
/// runs).
const BENCH_SEED: u64 = 0xBE7C_2005;

/// Configuration for one `dmfb bench` invocation.
pub struct BenchConfig {
    /// Quick mode: small arrays and trial counts for the CI smoke job.
    pub quick: bool,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Emit a `BENCH_*.json` report instead of only the text table.
    pub json: bool,
    /// Directory receiving the JSON report.
    pub out_dir: String,
    /// Report label (file-name stem suffix).
    pub label: String,
    /// Redundancy scheme whose workloads to run.
    pub scheme: SchemeChoice,
    /// When set, run the operational-yield assay suite on the IVD
    /// case-study chip instead of the matching-only scheme suite.
    pub assay: Option<AssayPanel>,
    /// Batch width for the block-engine workloads (`None` = the library
    /// default). `Some(0)` is rejected upstream: the suite pins the
    /// scalar and block engines per workload.
    pub block_trials: Option<usize>,
    /// When set, run the design-space-search suite (the `dmfb search`
    /// scorer on a capped candidate space) instead of a scheme suite.
    pub search: bool,
}

/// One benchmarked hex workload: `(design, primaries, trials)`.
fn hex_cases(quick: bool) -> Vec<(DtmbKind, usize, u32)> {
    if quick {
        vec![
            (DtmbKind::Dtmb26A, 120, 2_000),
            (DtmbKind::Dtmb44, 120, 2_000),
        ]
    } else {
        vec![
            (DtmbKind::Dtmb16, 240, 10_000),
            (DtmbKind::Dtmb26A, 240, 10_000),
            (DtmbKind::Dtmb36, 240, 10_000),
            (DtmbKind::Dtmb44, 240, 10_000),
        ]
    }
}

/// Square patterns worth benchmarking (the defective quarter pattern's
/// yield is ~0 everywhere interesting, so it is excluded).
fn square_cases(quick: bool) -> Vec<(SquarePattern, u32, u32)> {
    let (side, trials) = if quick { (12, 2_000) } else { (24, 10_000) };
    vec![
        (SquarePattern::PerfectCode, side, trials),
        (SquarePattern::Stripes, side, trials),
        (SquarePattern::Checkerboard, side, trials),
    ]
}

/// Short CLI-style design tag for entry names (`dtmb26`, `dtmb44`, …).
fn tag(kind: DtmbKind) -> &'static str {
    match kind {
        DtmbKind::Dtmb16 => "dtmb16",
        DtmbKind::Dtmb26A => "dtmb26",
        DtmbKind::Dtmb26B => "dtmb26b",
        DtmbKind::Dtmb36 => "dtmb36",
        DtmbKind::Dtmb44 => "dtmb44",
    }
}

/// Short CLI-style pattern tag for entry names.
fn pattern_tag(pattern: SquarePattern) -> &'static str {
    match pattern {
        SquarePattern::PerfectCode => "perfect-code",
        SquarePattern::Stripes => "stripes",
        SquarePattern::Checkerboard => "checkerboard",
        SquarePattern::Quarter => "quarter",
    }
}

#[allow(clippy::too_many_arguments)]
fn entry(
    name: String,
    scheme: &str,
    design: String,
    primaries: usize,
    trials: u32,
    grid_points: usize,
    wall_ms: f64,
    yield_estimate: f64,
) -> BenchEntry {
    let point_trials = u64::from(trials) * grid_points as u64;
    BenchEntry {
        name,
        scheme: scheme.to_string(),
        design,
        primaries,
        trials: u64::from(trials),
        grid_points,
        wall_ms,
        trials_per_sec: if wall_ms > 0.0 {
            point_trials as f64 / (wall_ms / 1_000.0)
        } else {
            f64::INFINITY
        },
        yield_estimate,
        assay: None,
        operational_yield: None,
        estimator: Some("naive".to_string()),
        defect_model: Some("bernoulli".to_string()),
        engine: None,
        variance: None,
        effective_samples: None,
        p50_ms: None,
        p95_ms: None,
        p99_ms: None,
        cache_hit_rate: None,
        campaign: None,
        spec: None,
    }
}

/// Canonical [`SchemeChoice`] descriptor string for a hex workload — the
/// same string the serve engine cache and `dmfb search` key on.
fn hex_spec(kind: DtmbKind, primaries: usize) -> Option<String> {
    Some(
        SchemeChoice::HexDtmb {
            design: Some(kind),
            primaries,
        }
        .canonical(),
    )
}

/// Runs `incremental` (scalar engine, pinned for baseline continuity),
/// `block` (the word-parallel batch pipeline on the same workload) and
/// `batched-sweep` (block engine) workloads for one scheme-generic
/// engine and appends the entries. `primaries` is the primary-*cell*
/// count of the array (for the spare-row scheme that is cells, not the
/// coarser module-row units the matcher works on — `BenchEntry.primaries`
/// is documented as a cell count).
#[allow(clippy::too_many_arguments)]
fn run_generic_engine(
    report: &mut BenchReport,
    est: &SchemeYield<SquareCoord>,
    scheme: &str,
    name_stem: &str,
    spec: &str,
    primaries: usize,
    trials: u32,
    block_trials: Option<usize>,
) {
    let scalar = est.clone().with_block_trials(Some(0));
    let block = est.clone().with_block_trials(block_trials);

    let t0 = Instant::now();
    let fast = scalar.estimate_survival(BENCH_P, trials, BENCH_SEED);
    let mut e = entry(
        format!("{name_stem}/incremental"),
        scheme,
        est.label().to_string(),
        primaries,
        trials,
        1,
        t0.elapsed().as_secs_f64() * 1_000.0,
        fast.point(),
    );
    e.engine = Some("scalar".to_string());
    e.spec = Some(spec.to_string());
    report.push(e);

    let t0 = Instant::now();
    let batch = block.estimate_survival(BENCH_P, trials, BENCH_SEED);
    debug_assert_eq!(batch, fast, "engines must be byte-identical");
    let mut e = entry(
        format!("{name_stem}/block"),
        scheme,
        est.label().to_string(),
        primaries,
        trials,
        1,
        t0.elapsed().as_secs_f64() * 1_000.0,
        batch.point(),
    );
    e.engine = Some("block".to_string());
    e.spec = Some(spec.to_string());
    report.push(e);

    let grid = FIG7_9_SURVIVAL_GRID;
    let t0 = Instant::now();
    let curve = block.sweep_survival_batched(&grid, trials, BENCH_SEED);
    let at_bench_p = curve
        .iter()
        .find(|pt| (pt.x - BENCH_P).abs() < 1e-9)
        .map_or(f64::NAN, |pt| pt.y);
    let mut e = entry(
        format!("{name_stem}/batched-sweep"),
        scheme,
        est.label().to_string(),
        primaries,
        trials,
        grid.len(),
        t0.elapsed().as_secs_f64() * 1_000.0,
        at_bench_p,
    );
    e.engine = Some("block".to_string());
    e.spec = Some(spec.to_string());
    report.push(e);
}

/// Runs the suite and returns the filled report.
#[must_use]
pub fn run(config: &BenchConfig) -> BenchReport {
    let threads = if config.threads == 0 {
        auto_threads()
    } else {
        config.threads
    };
    let mut report = BenchReport::new(config.label.clone(), threads, config.quick);
    if config.search {
        run_search_suite(&mut report, config.quick, threads);
        return report;
    }
    if let Some(panel) = config.assay {
        run_assay(
            &mut report,
            panel,
            config.quick,
            threads,
            config.block_trials,
        );
        return report;
    }
    match &config.scheme {
        SchemeChoice::HexDtmb { .. } => {
            run_hex(&mut report, config.quick, threads, config.block_trials);
            run_rare_event(&mut report, config.quick, threads);
        }
        SchemeChoice::SquareDtmb { .. } => {
            for (pattern, side, trials) in square_cases(config.quick) {
                let est = SchemeYield::from_scheme(&SquareRegion::rect(side, side), &pattern)
                    .with_threads(threads);
                let spec = SchemeChoice::SquareDtmb {
                    pattern,
                    width: side,
                    height: side,
                }
                .canonical();
                run_generic_engine(
                    &mut report,
                    &est,
                    "square-dtmb",
                    &format!("square-{}", pattern_tag(pattern)),
                    &spec,
                    est.evaluator().unit_count(),
                    trials,
                    config.block_trials,
                );
            }
        }
        SchemeChoice::SpareRows { .. } => {
            let (width, rows, spares, trials) = if config.quick {
                (12u32, 10u32, 2u32, 2_000u32)
            } else {
                (24, 20, 3, 10_000)
            };
            let array = SpareRowArray::new(
                width,
                vec![ModuleBand {
                    name: "Module 1".into(),
                    rows,
                }],
                spares,
            );
            let est = SchemeYield::from_scheme(&array.region(), &array).with_threads(threads);
            let spec = SchemeChoice::SpareRows {
                width,
                module_rows: rows,
                spare_rows: spares,
            }
            .canonical();
            run_generic_engine(
                &mut report,
                &est,
                "spare-rows",
                &format!("spare-rows-{width}x{rows}+{spares}"),
                &spec,
                (width * rows) as usize,
                trials,
                config.block_trials,
            );
        }
    }
    report
}

/// The assay suite: the operational-yield engine on the DTMB(2,6) IVD
/// case-study chip — one single-point workload (the paper's p = 0.95
/// anchor) and one three-tier sweep sharing each trial across a small
/// grid. Entries carry the assay label and the operational-yield column;
/// `yield_estimate` stays the reconfigured (second-tier) yield so the
/// entries remain comparable with the matching-only suites.
fn run_assay(
    report: &mut BenchReport,
    panel: AssayPanel,
    quick: bool,
    threads: usize,
    block_trials: Option<usize>,
) {
    let trials: u32 = if quick { 300 } else { 2_000 };
    let engine = OperationalYield::ivd(panel)
        .with_threads(threads)
        .with_block_trials(block_trials);
    let primaries = engine.chip().array.primary_count();
    let stem = panel.label();

    let t0 = Instant::now();
    let e = engine.estimate(BENCH_P, trials, BENCH_SEED);
    let mut point = entry(
        format!("{stem}/operational-point"),
        "hex-dtmb",
        "DTMB(2,6) IVD".to_string(),
        primaries,
        trials,
        1,
        t0.elapsed().as_secs_f64() * 1_000.0,
        e.reconfigured.point(),
    );
    point.assay = Some(stem.to_string());
    point.operational_yield = Some(e.operational.point());
    point.engine = Some("block".to_string());
    point.spec = Some(assay_spec(panel));
    report.push(point);

    let grid = [0.90, 0.925, BENCH_P, 0.975, 1.00];
    let t0 = Instant::now();
    let rows = engine.sweep(&grid, trials, BENCH_SEED);
    let at_bench_p = rows
        .iter()
        .find(|r| (r.p - BENCH_P).abs() < 1e-9)
        .expect("the grid contains the bench anchor");
    let mut sweep = entry(
        format!("{stem}/operational-sweep"),
        "hex-dtmb",
        "DTMB(2,6) IVD".to_string(),
        primaries,
        trials,
        grid.len(),
        t0.elapsed().as_secs_f64() * 1_000.0,
        at_bench_p.reconfigured.point(),
    );
    sweep.assay = Some(stem.to_string());
    sweep.operational_yield = Some(at_bench_p.operational.point());
    sweep.engine = Some("block".to_string());
    sweep.spec = Some(assay_spec(panel));
    report.push(sweep);

    run_campaigns(report, panel, primaries, trials, threads);
}

/// The campaign verdict workloads: replay the named adversarial
/// campaigns through the three-tier pipeline and record the *final-step*
/// survival — the after-the-attack yields — in the campaign column
/// family. One estimate runs per campaign step (common random numbers
/// across steps), so `grid_points` carries the step count and the
/// throughput number stays an honest point-trials-per-second figure.
fn run_campaigns(
    report: &mut BenchReport,
    panel: AssayPanel,
    primaries: usize,
    trials: u32,
    threads: usize,
) {
    let runner = CampaignRunner::ivd(panel).with_threads(threads);
    let stem = panel.label();
    for name in ["edge-column-wipeout", "reservoir-cluster"] {
        let scenario = named_campaign(name).expect("built-in campaign");
        let t0 = Instant::now();
        let outcome = runner.run(&scenario, BENCH_P, trials, BENCH_SEED);
        let last = outcome.steps.last().expect("campaigns have steps");
        let mut e = entry(
            format!("{stem}/campaign-{name}"),
            "hex-dtmb",
            "DTMB(2,6) IVD".to_string(),
            primaries,
            trials,
            outcome.steps.len(),
            t0.elapsed().as_secs_f64() * 1_000.0,
            last.estimate.reconfigured.point(),
        );
        e.assay = Some(stem.to_string());
        e.operational_yield = Some(last.estimate.operational.point());
        e.engine = Some("scalar".to_string());
        e.campaign = Some(name.to_string());
        e.spec = Some(assay_spec(panel));
        report.push(e);
    }
}

/// Canonical engine descriptor string for assay workloads.
fn assay_spec(panel: AssayPanel) -> String {
    dmfb_core::spec::EngineSpec::Assay(panel).canonical()
}

/// The design-space-search suite: one full `dmfb search` scoring pass
/// (exact Hall-bound pruning plus stratified scoring) on a capped
/// reconfigured-tier space, and one on the operational IVD pair. The
/// entry's `trials` column records the trials *actually spent* after
/// pruning, so the committed baseline documents the pruning win, and
/// `spec` carries the winning frontier row.
fn run_search_suite(report: &mut BenchReport, quick: bool, threads: usize) {
    use dmfb_core::search::{run_search, SearchConfig, SearchSpace};

    let mut config = SearchConfig::new(0.99);
    config.threads = threads;
    if quick {
        config.trials = 400;
        config.space = SearchSpace {
            max_primaries: 60,
            max_dim: 12,
        };
    }
    let t0 = Instant::now();
    let outcome = run_search(&config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    // The cheapest row meeting the target, or the highest-yield frontier
    // row when nothing reaches it — either way a stable yield anchor.
    let best = outcome.best().or_else(|| outcome.frontier.last());
    let mut e = entry(
        "search/reconfigured".to_string(),
        "search",
        format!(
            "target 0.99 ({} candidates, {} pruned)",
            outcome.candidates, outcome.pruned
        ),
        0,
        u32::try_from(outcome.trials_used).unwrap_or(u32::MAX),
        1,
        wall_ms,
        best.and_then(|row| row.yield_point).unwrap_or(f64::NAN),
    );
    e.trials = outcome.trials_used;
    e.estimator = Some("stratified".to_string());
    e.spec = best.map(|row| row.spec.clone());
    report.push(e);

    config.tier = dmfb_core::Tier::Operational;
    config.assay = Some(AssayPanel::StandardIvd);
    let t0 = Instant::now();
    let outcome = run_search(&config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    let best = outcome.best().or_else(|| outcome.frontier.last());
    let mut e = entry(
        "search/assay-ivd".to_string(),
        "search",
        "target 0.99 operational".to_string(),
        0,
        u32::try_from(outcome.trials_used).unwrap_or(u32::MAX),
        1,
        wall_ms,
        best.and_then(|row| row.yield_point).unwrap_or(f64::NAN),
    );
    e.trials = outcome.trials_used;
    e.estimator = Some("stratified".to_string());
    e.assay = Some(AssayPanel::StandardIvd.label().to_string());
    e.spec = best.map(|row| row.spec.clone());
    report.push(e);
}

/// Survival probability of the rare-event (stratified-vs-naive) showcase:
/// the DTMB(2,6) case study at `p = 0.999`, where naive Monte-Carlo
/// wastes ~85% of its trials on defect-free chips.
const RARE_P: f64 = 0.999;

/// The rare-event workload pair on the DTMB(2,6) case study: the naive
/// incremental engine with a full trial budget, then the stratified
/// estimator with **one tenth** of it. Both entries record variance and
/// effective samples, so the committed baseline carries the acceptance
/// evidence: the stratified run's `effective_samples` must beat the naive
/// run's actual trial count despite spending 10× fewer evaluations.
fn run_rare_event(report: &mut BenchReport, quick: bool, threads: usize) {
    // The full case-study array in both modes (the failure event is too
    // rare to observe at all on smaller chips); quick mode only trims the
    // trial budget.
    let (primaries, naive_trials) = if quick { (240, 40_000) } else { (240, 400_000) };
    let strat_budget = naive_trials / 10;
    let mc = SchemeYield::new(
        DtmbKind::Dtmb26A.with_primary_count(primaries),
        ReconfigPolicy::AllPrimaries,
    )
    .with_threads(threads);

    let t0 = Instant::now();
    let naive = mc.estimate_survival(RARE_P, naive_trials, BENCH_SEED);
    let mut naive_entry = entry(
        "dtmb26/rare-naive".to_string(),
        "hex-dtmb",
        DtmbKind::Dtmb26A.to_string(),
        primaries,
        naive_trials,
        1,
        t0.elapsed().as_secs_f64() * 1_000.0,
        naive.point(),
    );
    // Same Agresti–Coull smoothing as the stratified estimator's
    // variance, so an all-success run still admits the failure its trial
    // count cannot exclude and the two entries stay comparable.
    let s = (naive.successes() as f64 + 1.0) / (naive.trials() as f64 + 2.0);
    naive_entry.variance = Some(s * (1.0 - s) / f64::from(naive_trials));
    naive_entry.effective_samples = Some(f64::from(naive_trials));
    naive_entry.engine = Some("block".to_string());
    naive_entry.spec = hex_spec(DtmbKind::Dtmb26A, primaries);
    report.push(naive_entry);

    let t0 = Instant::now();
    let strat = mc.estimate_survival_stratified(
        RARE_P,
        strat_budget,
        BENCH_SEED,
        &StratifiedConfig::default(),
    );
    let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    let mut strat_entry = entry(
        "dtmb26/rare-stratified".to_string(),
        "hex-dtmb",
        DtmbKind::Dtmb26A.to_string(),
        primaries,
        u32::try_from(strat.trials).unwrap_or(u32::MAX),
        1,
        wall_ms,
        strat.point,
    );
    strat_entry.estimator = Some("stratified".to_string());
    strat_entry.variance = Some(strat.variance);
    let effective = strat.effective_trials();
    // Measured, never fabricated. Infinity (nothing sampled at all —
    // only possible when every stratum resolved exactly) cannot ride in
    // JSON and is reported as the absent column.
    strat_entry.effective_samples = effective.is_finite().then_some(effective);
    strat_entry.engine = Some("block".to_string());
    strat_entry.spec = hex_spec(DtmbKind::Dtmb26A, primaries);
    report.push(strat_entry);
}

/// Survival probability of the scalar-vs-block acceptance pair: the
/// high-survival regime where the Hall-bound classifier retires most
/// lanes without the matcher.
const PAIR_P: f64 = 0.99;

/// The hexagonal suite keeps the historic engine comparison — the
/// incremental evaluator (pinned to the scalar engine for
/// baseline continuity), the word-parallel block pipeline on the same
/// workload, and the batched sweep (block engine) — plus the
/// `dtmb26/p99-scalar`/`dtmb26/p99-block` acceptance pair whose
/// committed throughput ratio documents the block-engine speed-up.
fn run_hex(report: &mut BenchReport, quick: bool, threads: usize, block_trials: Option<usize>) {
    for (kind, primaries, trials) in hex_cases(quick) {
        let mc = SchemeYield::new(
            kind.with_primary_count(primaries),
            ReconfigPolicy::AllPrimaries,
        )
        .with_threads(threads);
        let scalar = mc.clone().with_block_trials(Some(0));
        let block = mc.clone().with_block_trials(block_trials);

        let t0 = Instant::now();
        let fast = scalar.estimate_survival(BENCH_P, trials, BENCH_SEED);
        let mut e = entry(
            format!("{}/incremental", tag(kind)),
            "hex-dtmb",
            kind.to_string(),
            primaries,
            trials,
            1,
            t0.elapsed().as_secs_f64() * 1_000.0,
            fast.point(),
        );
        e.engine = Some("scalar".to_string());
        e.spec = hex_spec(kind, primaries);
        report.push(e);

        let t0 = Instant::now();
        let batch = block.estimate_survival(BENCH_P, trials, BENCH_SEED);
        debug_assert_eq!(batch, fast, "engines must be byte-identical");
        let mut e = entry(
            format!("{}/block", tag(kind)),
            "hex-dtmb",
            kind.to_string(),
            primaries,
            trials,
            1,
            t0.elapsed().as_secs_f64() * 1_000.0,
            batch.point(),
        );
        e.engine = Some("block".to_string());
        e.spec = hex_spec(kind, primaries);
        report.push(e);

        let grid = FIG7_9_SURVIVAL_GRID;
        let t0 = Instant::now();
        let curve = block.sweep_survival_batched(&grid, trials, BENCH_SEED);
        let at_bench_p = curve
            .iter()
            .find(|pt| (pt.x - BENCH_P).abs() < 1e-9)
            .map_or(f64::NAN, |pt| pt.y);
        let mut e = entry(
            format!("{}/batched-sweep", tag(kind)),
            "hex-dtmb",
            kind.to_string(),
            primaries,
            trials,
            grid.len(),
            t0.elapsed().as_secs_f64() * 1_000.0,
            at_bench_p,
        );
        e.engine = Some("block".to_string());
        e.spec = hex_spec(kind, primaries);
        report.push(e);
    }

    // The acceptance pair: one workload, both engines, p = 0.99 on the
    // DTMB(2,6) case study — the regime the classifier tiers target.
    let (primaries, trials) = if quick { (120, 20_000) } else { (240, 100_000) };
    let mc = SchemeYield::new(
        DtmbKind::Dtmb26A.with_primary_count(primaries),
        ReconfigPolicy::AllPrimaries,
    )
    .with_threads(threads);
    for (engine_tag, block_sel) in [("scalar", Some(0)), ("block", block_trials)] {
        let engine = mc.clone().with_block_trials(block_sel);
        let t0 = Instant::now();
        let est = engine.estimate_survival(PAIR_P, trials, BENCH_SEED);
        let mut e = entry(
            format!("dtmb26/p99-{engine_tag}"),
            "hex-dtmb",
            DtmbKind::Dtmb26A.to_string(),
            primaries,
            trials,
            1,
            t0.elapsed().as_secs_f64() * 1_000.0,
            est.point(),
        );
        e.engine = Some(engine_tag.to_string());
        e.spec = hex_spec(DtmbKind::Dtmb26A, primaries);
        report.push(e);
    }
}

/// Renders the report as an aligned text table.
#[must_use]
pub fn render_table(report: &BenchReport) -> String {
    let mut table = TextTable::new(vec![
        "workload".into(),
        "scheme".into(),
        "estimator".into(),
        "engine".into(),
        "primaries".into(),
        "trials".into(),
        "grid".into(),
        "wall_ms".into(),
        "point-trials/s".into(),
        "yield".into(),
        "eff-samples".into(),
        "assay".into(),
        "op-yield".into(),
        "campaign".into(),
    ]);
    for e in &report.entries {
        table.row(vec![
            e.name.clone(),
            e.scheme.clone(),
            e.estimator.clone().unwrap_or_else(|| "-".into()),
            e.engine.clone().unwrap_or_else(|| "-".into()),
            e.primaries.to_string(),
            e.trials.to_string(),
            e.grid_points.to_string(),
            format!("{:.1}", e.wall_ms),
            format!("{:.0}", e.trials_per_sec),
            format!("{:.4}", e.yield_estimate),
            e.effective_samples
                .map_or_else(|| "-".into(), |x| format!("{x:.0}")),
            e.assay.clone().unwrap_or_else(|| "-".into()),
            e.operational_yield
                .map_or_else(|| "-".into(), |y| format!("{y:.4}")),
            e.campaign.clone().unwrap_or_else(|| "-".into()),
        ]);
    }
    table.render()
}
