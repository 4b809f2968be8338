//! `perfbench-tracer` — the in-process half of the dmfb benchmark.
//!
//! The end-to-end numbers come from timing the release `dmfb` binary;
//! this program gives the per-layer split. It calls each layer's public
//! functions on the same inputs a workload's commands use and times every
//! call from outside with `Instant`, so nothing inside the measured
//! crates changes.
//!
//! ```text
//! perfbench-tracer env
//! perfbench-tracer calibrate --rounds 5
//! perfbench-tracer setup --engines hex:dtmb26:600,ivd:ivd-panel --seconds 1
//! perfbench-tracer trace --seed 7 --seconds 10 --on-path build,block ... (see `Plan`)
//! ```
//!
//! Every subcommand prints one JSON object on stdout.

use dmfb_core::bioassay::layout::{ivd_dtmb26_chip, used_cells_policy};
use dmfb_core::defects::block::{fault_threshold, BlockSampler};
use dmfb_core::prelude::*;
use dmfb_core::search::{run_search, SearchConfig, SearchSpace};
use dmfb_core::sim::SeedSequence;
use dmfb_core::spec::{self, SchemeSpec, Tier};
use dmfb_core::yield_model::DEFAULT_BLOCK_TRIALS;
use dmfb_serve::http::HttpClient;
use dmfb_serve::request::CacheMode;
use dmfb_serve::{parse_yield_request, CachedEngine, Server, ServerConfig, ServerState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|a| match cmd.as_str() {
            "env" => Ok(env_json()),
            "calibrate" => calibrate(&a),
            "setup" => setup(&a),
            "trace" => Plan::from_args(&a).map(|plan| trace(&plan)),
            other => Err(format!("unknown subcommand '{other}'")),
        }),
        None => Err("usage: perfbench-tracer env|calibrate|setup|trace [--key value]...".into()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs; a key may repeat (`--body`).
struct Args {
    map: BTreeMap<String, Vec<String>>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got '{arg}'"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.entry(key.to_string()).or_default().push(value.clone());
        }
        Ok(Args { map })
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key)?;
        v.parse()
            .map_err(|_| format!("invalid value '{v}' for --{key}"))
    }

    fn all(&self, key: &str) -> &[String] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }
}

/// The machine facts a result must carry that only compiled code can see.
fn env_json() -> String {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{{\"avx2\": {avx2}, \"available_parallelism\": {threads}}}")
}

/// `calibrate`: times a fixed kernel that calls no dmfb code — xorshift
/// draws, scattered read-modify-writes over a 512 KiB table and popcounts,
/// the same mix of integer work and cache traffic the engines do — and
/// prints the median of `--rounds` rounds. Its time tracks how fast the
/// host runs this process right now, whatever the repository's code does.
fn calibrate(args: &Args) -> Result<String, String> {
    let rounds: usize = args.num("rounds")?;
    let mut table = vec![0u64; 1 << 16];
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        let (acc, d) = timed(|| {
            let mut acc = 0u32;
            for _ in 0..1_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x as usize) & mask;
                table[i] = table[i].wrapping_add(x);
                acc = acc.wrapping_add(table[(i * 7 + 1) & mask].count_ones());
            }
            acc
        });
        black_box(acc);
        times.push(secs(d));
    }
    Ok(format!("{{\"calibrate_s\": {:e}}}", median(&mut times)))
}

/// A chip token: `<design>:<primaries>` (e.g. `dtmb26:600`) or `ivd`,
/// the DTMB(2,6) IVD case-study chip under its used-cells policy.
fn biochip(token: &str) -> Result<Biochip, String> {
    if token == "ivd" {
        let chip = ivd_dtmb26_chip();
        let policy = used_cells_policy(&chip);
        return Ok(Biochip::from_array(chip.array).with_policy(policy));
    }
    let (design, primaries) = token
        .split_once(':')
        .ok_or_else(|| format!("chip '{token}' is not <design>:<primaries> or ivd"))?;
    let primaries: usize = primaries
        .parse()
        .map_err(|_| format!("bad primary count in '{token}'"))?;
    Ok(match spec::parse_design_token(Some(design))? {
        Some(kind) => Biochip::dtmb(kind, primaries),
        None => Biochip::without_redundancy(primaries),
    })
}

fn evaluator(chip: &Biochip) -> TrialEvaluator {
    TrialEvaluator::new(chip.array(), chip.policy())
}

fn panel(token: &str) -> Result<AssayPanel, String> {
    token.parse()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `f` once and returns its result with the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Every evaluator a `dmfb search` over `space` builds, one per candidate.
fn search_candidates(space: SearchSpace) -> Vec<SchemeSpec> {
    space.candidates(Tier::Reconfigured)
}

/// Builds the candidate's evaluator and hands it to `f` (hex and square
/// candidates have different coordinate types).
fn with_candidate_evaluator<R>(
    spec: &SchemeSpec,
    f_hex: impl FnOnce(TrialEvaluator) -> R,
    f_square: impl FnOnce(TrialEvaluator<SquareCoord>) -> R,
) -> R {
    match spec {
        SchemeSpec::HexDtmb { .. } => {
            let chip = spec.biochip().expect("hex spec builds a biochip");
            f_hex(evaluator(&chip))
        }
        SchemeSpec::SquareDtmb {
            pattern,
            width,
            height,
        } => f_square(TrialEvaluator::for_scheme(
            &SquareRegion::rect(*width, *height),
            pattern,
        )),
        SchemeSpec::SpareRows {
            width,
            module_rows,
            spare_rows,
        } => {
            let array = SpareRowArray::new(
                *width,
                vec![ModuleBand {
                    name: "Module 1".into(),
                    rows: *module_rows,
                }],
                *spare_rows,
            );
            f_square(TrialEvaluator::for_scheme(&array.region(), &array))
        }
    }
}

/// `setup`: builds the listed engines over and over for `--seconds` (at
/// least five rounds) and prints the median seconds per round. Tokens:
/// `hex:<chip>` (`TrialEvaluator::new` + `SchemeYield::from_evaluator`),
/// `ivd:<panel>` (`OperationalYield::ivd`), `search:<max-primaries>`
/// (every search candidate's evaluator).
fn setup(args: &Args) -> Result<String, String> {
    let seconds: f64 = args.num("seconds")?;
    let mut builders: Vec<Box<dyn Fn()>> = Vec::new();
    for token in args.str("engines")?.split(',') {
        let (kind, rest) = token
            .split_once(':')
            .ok_or_else(|| format!("bad engine token '{token}'"))?;
        match kind {
            "hex" => {
                let chip = biochip(rest)?;
                builders.push(Box::new(move || {
                    black_box(SchemeYield::from_evaluator("setup", evaluator(&chip)));
                }));
            }
            "ivd" => {
                let panel = panel(rest)?;
                builders.push(Box::new(move || {
                    black_box(OperationalYield::ivd(panel));
                }));
            }
            "search" => {
                let space = SearchSpace {
                    max_primaries: rest.parse().map_err(|_| format!("bad token '{token}'"))?,
                    max_dim: SearchSpace::default().max_dim,
                };
                builders.push(Box::new(move || {
                    for spec in search_candidates(space) {
                        with_candidate_evaluator(
                            &spec,
                            |e| drop(black_box(e)),
                            |e| drop(black_box(e)),
                        );
                    }
                }));
            }
            _ => return Err(format!("unknown engine kind '{kind}'")),
        }
    }
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 5 || secs(start.elapsed()) < seconds {
        let ((), d) = timed(|| builders.iter().for_each(|b| b()));
        rounds.push(secs(d));
    }
    let n = rounds.len();
    Ok(format!(
        "{{\"setup_s\": {:e}, \"rounds\": {n}}}",
        median(&mut rounds)
    ))
}

/// What one traced run replays; every field comes from the harness, which
/// derives it from the workload definition and the seed.
struct Plan {
    seed: u64,
    seconds: f64,
    /// Layers on the workload's own command path; the others run at their
    /// probe budgets and stay out of coverage and traced wall.
    on_path: Vec<String>,
    chip: String,
    block_chip: String,
    block_p: f64,
    block_trials: u32,
    report_p: f64,
    report_trials: u32,
    strat_p: f64,
    strat_budget: u32,
    search_target: f64,
    search_p: f64,
    search_trials: u32,
    search_max_primaries: usize,
    panel: AssayPanel,
    op_p: f64,
    op_trials: u32,
    campaign: String,
    bodies: Vec<String>,
}

impl Plan {
    fn from_args(a: &Args) -> Result<Self, String> {
        Ok(Plan {
            seed: a.num("seed")?,
            seconds: a.num("seconds")?,
            on_path: a.str("on-path")?.split(',').map(String::from).collect(),
            chip: a.str("chip")?.to_string(),
            block_chip: a.str("block-chip")?.to_string(),
            block_p: a.num("block-p")?,
            block_trials: a.num("block-trials")?,
            report_p: a.num("report-p")?,
            report_trials: a.num("report-trials")?,
            strat_p: a.num("strat-p")?,
            strat_budget: a.num("strat-budget")?,
            search_target: a.num("search-target")?,
            search_p: a.num("search-p")?,
            search_trials: a.num("search-trials")?,
            search_max_primaries: a.num("search-max-primaries")?,
            panel: panel(a.str("panel")?)?,
            op_p: a.num("op-p")?,
            op_trials: a.num("op-trials")?,
            campaign: a.str("campaign")?.to_string(),
            bodies: a.all("body").to_vec(),
        })
    }
}

/// One layer's measurements from one pass. Names ending in `_s` or `.s`
/// are busy seconds; the rest are counts or ratios that must repeat
/// exactly from pass to pass.
#[derive(Default)]
struct Layer {
    metrics: Vec<(&'static str, f64)>,
    /// The layer's self time: the timed calls, without replay bookkeeping.
    self_s: f64,
    checks: u64,
    failed: u64,
}

impl Layer {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn is_time(name: &str) -> bool {
    name.ends_with("_s") || name.ends_with(".s")
}

/// `trace`: replays every layer, repeating whole passes until `--seconds`
/// are spent. Times are medians over passes; counts come from the first
/// pass, and a pass whose counts differ from it fails a check.
fn trace(plan: &Plan) -> String {
    type LayerFn = fn(&Plan) -> Layer;
    const LAYERS: [(&str, LayerFn); 7] = [
        ("build", layer_build),
        ("block", layer_block),
        ("report", layer_report),
        ("stratify", layer_stratify),
        ("search", layer_search),
        ("operational", layer_operational),
        ("serve", layer_serve),
    ];
    let start = Instant::now();
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut path_walls = Vec::new();
    let mut path_selfs = Vec::new();
    let (mut checks, mut failed) = (0u64, 0u64);
    while passes.is_empty() || secs(start.elapsed()) < plan.seconds {
        let mut pass = BTreeMap::new();
        let (mut wall, mut self_s) = (0.0, 0.0);
        for (name, run) in LAYERS {
            let (layer, d) = timed(|| run(plan));
            if plan.on_path.iter().any(|p| p == name) {
                wall += secs(d);
                self_s += layer.self_s;
            }
            checks += layer.checks;
            failed += layer.failed;
            pass.extend(layer.metrics);
        }
        if let Some(first) = passes.first() {
            for (name, value) in &pass {
                if !is_time(name) {
                    checks += 1;
                    failed += u64::from(first.get(name) != Some(value));
                }
            }
        }
        passes.push(pass);
        path_walls.push(wall);
        path_selfs.push(self_s);
    }
    let mut out: BTreeMap<&str, f64> = passes[0].clone();
    for (name, value) in out.iter_mut() {
        if is_time(name) {
            let mut all: Vec<f64> = passes.iter().map(|p| p[name]).collect();
            *value = median(&mut all);
        }
    }
    let coverage: Vec<f64> = path_selfs
        .iter()
        .zip(&path_walls)
        .map(|(s, w)| if *w > 0.0 { s / w } else { 0.0 })
        .collect();
    out.insert("trace.wall_s", median(&mut path_walls));
    out.insert("trace.coverage", median(&mut coverage.clone()));
    let metrics: Vec<String> = out.iter().map(|(k, v)| format!("\"{k}\": {v:e}")).collect();
    format!(
        "{{\"checks\": {checks}, \"failed\": {failed}, \"passes\": {}, \"metrics\": {{{}}}}}",
        passes.len(),
        metrics.join(", ")
    )
}

/// Engine build: the workload chip's evaluator and the IVD operational
/// stack.
fn layer_build(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let chip = biochip(&plan.chip).expect("chip token was validated by the harness");
    let (eval, evaluator_s) = timed(|| evaluator(&chip));
    let (op, operational_s) = timed(|| OperationalYield::ivd(plan.panel));
    black_box(op);
    layer.put("build.evaluator_s", secs(evaluator_s));
    layer.put("build.operational_s", secs(operational_s));
    layer.put("build.cells", eval.cell_count() as f64);
    layer.put("build.edges", eval.edge_count() as f64);
    layer.self_s = secs(evaluator_s + operational_s);
    layer
}

/// The evaluator's relevant cells in its own (sorted) order, which is the
/// order the block sampler draws fault words in.
fn evaluator_cells(eval: &TrialEvaluator) -> Vec<HexCoord> {
    let mut cells: Vec<HexCoord> = (0..eval.unit_count())
        .flat_map(|i| eval.unit_coords(i))
        .chain((0..eval.resource_count()).flat_map(|j| eval.resource_coords(j)))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// The tiered block engine at one survival probability: the whole
/// `survival_block` call, the transposed sample on its own, and the
/// scalar matcher replayed on exactly the lanes the classifier left.
/// Classify time is derived: block − sample − match.
fn layer_block(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let chip = biochip(&plan.block_chip).expect("chip token was validated by the harness");
    let eval = evaluator(&chip);
    let p = plan.block_p;
    let seeds: Vec<u64> = (0..u64::from(plan.block_trials))
        .map(|i| SeedSequence::nth_seed(plan.seed, i))
        .collect();

    let mut block = eval.block_scratch();
    let (tolerable, block_d) = timed(|| {
        seeds
            .chunks(DEFAULT_BLOCK_TRIALS)
            .map(|chunk| eval.survival_block(p, chunk, &mut block))
            .sum::<u32>()
    });
    black_box(tolerable);
    let stats = block.stats();

    let threshold = fault_threshold(p);
    let cells = eval.cell_count();
    let mut sampler = BlockSampler::new(&[]);
    let mut words = vec![0u64; cells];
    let (groups, sample_d) = timed(|| {
        let mut groups = 0u64;
        for group in seeds.chunks(64) {
            sampler.reseed(group);
            sampler.fill_fault_words(threshold, &mut words);
            black_box(&words);
            groups += 1;
        }
        groups
    });

    // Residue replay. A lane with no faulty unit, or with no more faults
    // than the Hall bound the engine counts against, never reaches the
    // matcher; every other lane runs alone through `survival_block`, whose
    // stats say whether the classifier left it to the matcher. The lanes
    // found must add up to the block run's own count, so this pre-filter
    // cannot hide one.
    let coords = evaluator_cells(&eval);
    layer.check(coords.len() == cells);
    let unit_cells: Vec<Vec<usize>> = (0..eval.unit_count())
        .map(|i| {
            eval.unit_coords(i)
                .map(|c| {
                    coords
                        .binary_search(&c)
                        .expect("unit cells are evaluator cells")
                })
                .collect()
        })
        .collect();
    let bound = eval.guaranteed_tolerable_faults();
    let counted = (1..=255).contains(&bound);
    let mut lane_block = eval.block_scratch();
    let mut residue: Vec<(Vec<HexCoord>, bool)> = Vec::new();
    for group in seeds.chunks(64) {
        sampler.reseed(group);
        sampler.fill_fault_words(threshold, &mut words);
        let faulty_unit = unit_cells
            .iter()
            .flatten()
            .fold(0u64, |acc, &c| acc | words[c]);
        let mut faults = [0usize; 64];
        for &word in &words {
            let mut w = word;
            while w != 0 {
                faults[w.trailing_zeros() as usize] += 1;
                w &= w - 1;
            }
        }
        for (lane, &seed) in group.iter().enumerate() {
            if (faulty_unit >> lane) & 1 == 0 || (counted && faults[lane] <= bound) {
                continue;
            }
            let before = lane_block.stats().matched;
            let verdict = eval.survival_block(p, &[seed], &mut lane_block) == 1;
            if lane_block.stats().matched > before {
                let faulty = coords
                    .iter()
                    .zip(&words)
                    .filter(|(_, w)| (**w >> lane) & 1 == 1)
                    .map(|(c, _)| *c)
                    .collect();
                residue.push((faulty, verdict));
            }
        }
    }
    layer.check(residue.len() as u64 == stats.matched);
    // The replay stages each fault set through `evaluate_faulty_cells`;
    // the same calls with the faults moved off the chip (which the
    // evaluator ignores) are the staging cost subtracted from it.
    let off_chip: Vec<HexCoord> = (0..cells as i32)
        .map(|i| HexCoord::new(1 << 20, i))
        .collect();
    let mut scratch = eval.scratch();
    let (disagree, replay) = timed(|| {
        residue
            .iter()
            .filter(|(faulty, verdict)| {
                eval.evaluate_faulty_cells(faulty, &mut scratch) != *verdict
            })
            .count()
    });
    let ((), baseline) = timed(|| {
        for (faulty, _) in &residue {
            black_box(eval.evaluate_faulty_cells(&off_chip[..faulty.len()], &mut scratch));
        }
    });
    layer.check(disagree == 0);

    let block_s = secs(block_d);
    let sample_s = secs(sample_d);
    let match_s = secs(replay.saturating_sub(baseline));
    let lanes = stats.lanes.max(1) as f64;
    layer.put("block.s", block_s);
    layer.put("sample.s", sample_s);
    layer.put("sample.cell_words", (groups * cells as u64) as f64);
    layer.put("classify.s", block_s - sample_s - match_s);
    layer.put("classify.lanes", stats.lanes as f64);
    layer.put("classify.retired", stats.classified as f64);
    layer.put("classify.skip_rate", stats.classified as f64 / lanes);
    layer.put("match.s", match_s);
    layer.put("match.lanes", stats.matched as f64);
    layer.put("match.residue_frac", stats.matched as f64 / lanes);
    layer.self_s = block_s;
    layer
}

/// The default `dmfb yield` report path: `Biochip::yield_report` as a
/// whole, and its per-trial rebuild estimate on its own; the raw-yield
/// pass is the difference (derived).
fn layer_report(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let chip = biochip(&plan.chip).expect("chip token was validated by the harness");
    let (p, trials, seed) = (plan.report_p, plan.report_trials, plan.seed);
    let (report, report_d) = timed(|| chip.yield_report(p, trials, seed));
    let mc = MonteCarloYield::new(chip.array().clone(), chip.policy().clone());
    let (rebuilt, rebuild_d) = timed(|| mc.estimate_survival(p, trials, seed));
    layer.check(rebuilt == report.reconfigured_yield);
    layer.put("report.s", secs(report_d));
    layer.put("report.rebuild_s", secs(rebuild_d));
    layer.put("report.raw_pass_s", secs(report_d) - secs(rebuild_d));
    layer.self_s = secs(report_d);
    layer
}

/// The stratified estimator as `dmfb yield --estimator stratified` runs
/// it, with its plan counts.
fn layer_stratify(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let chip = biochip(&plan.chip).expect("chip token was validated by the harness");
    let mc = MonteCarloYield::new(chip.array().clone(), chip.policy().clone());
    let config = StratifiedConfig::default();
    let (est, d) = timed(|| {
        mc.estimate_survival_stratified(plan.strat_p, plan.strat_budget, plan.seed, &config)
    });
    let eff = est.effective_trials();
    layer.put("strata.s", secs(d));
    layer.put("strata.count", est.strata.len() as f64);
    layer.put(
        "strata.exact",
        est.strata.iter().filter(|s| s.exact).count() as f64,
    );
    layer.put("strata.sampled_trials", est.trials as f64);
    layer.put(
        "strata.eff_ratio",
        if eff.is_finite() {
            eff / est.trials.max(1) as f64
        } else {
            0.0
        },
    );
    layer.put("strata.truncated_mass", est.truncated_mass);
    layer.self_s = secs(d);
    layer
}

/// `dmfb search`: the whole run, plus the exact bounds it prunes with,
/// timed per candidate on evaluators built outside the timer.
fn layer_search(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let space = SearchSpace {
        max_primaries: plan.search_max_primaries,
        max_dim: SearchSpace::default().max_dim,
    };
    let p = plan.search_p;
    let mut bounds = Duration::ZERO;
    for spec in search_candidates(space) {
        bounds += with_candidate_evaluator(
            &spec,
            |e| timed(|| black_box(e.survival_upper_bound(p) + e.survival_lower_bound(p))).1,
            |e| timed(|| black_box(e.survival_upper_bound(p) + e.survival_lower_bound(p))).1,
        );
    }
    let config = SearchConfig {
        target_yield: plan.search_target,
        tier: Tier::Reconfigured,
        assay: None,
        p,
        trials: plan.search_trials,
        seed: plan.seed,
        threads: 1,
        space,
        stratified: StratifiedConfig::default(),
    };
    let (report, d) = timed(|| run_search(&config));
    layer.check(!report.frontier.is_empty());
    layer.put("search.s", secs(d));
    layer.put("search.bounds_s", secs(bounds));
    layer.put("search.candidates", report.candidates as f64);
    layer.put("search.pruned", report.pruned as f64);
    layer.put("search.trials_used", report.trials_used as f64);
    layer.self_s = secs(d);
    layer
}

/// The operational tier's per-chip verdict (`OperationalYield::evaluate_map`
/// on Bernoulli defect maps) and the campaign compiler (named scenario
/// parsed and executed into its damage trajectory).
fn layer_operational(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let op = OperationalYield::ivd(plan.panel);
    let region = op.chip().array.region().clone();
    let model = Bernoulli::from_survival(plan.op_p);
    let mut verdict = Duration::ZERO;
    let mut operational = 0u64;
    for i in 0..u64::from(plan.op_trials) {
        let mut rng = StdRng::seed_from_u64(SeedSequence::nth_seed(plan.seed, i));
        let defects = model.inject(&region, &mut rng);
        let (v, d) = timed(|| op.evaluate_map(&defects));
        verdict += d;
        operational += u64::from(v.operational);
    }
    let (trajectory, compile) = timed(|| {
        named_campaign(&plan.campaign).map(|s| (s.steps().len(), s.execute(&region, plan.seed)))
    });
    let steps = match trajectory {
        Some((steps, trajectory)) => {
            black_box(trajectory);
            steps
        }
        None => {
            layer.check(false);
            0
        }
    };
    layer.put("operational.verdict_s", secs(verdict));
    layer.put("operational.trials", f64::from(plan.op_trials));
    layer.put("operational.survivors", operational as f64);
    layer.put("campaign.compile_s", secs(compile));
    layer.put("campaign.steps", steps as f64);
    layer.self_s = secs(verdict + compile);
    layer
}

/// The serve path, split: request parsing, engine builds (first use of a
/// key, and every bypass), engine runs, and the wire — a real daemon's
/// round trips minus the in-process `handle_yield` time for the same
/// bodies in the same order.
fn layer_serve(plan: &Plan) -> Layer {
    let mut layer = Layer::default();
    let (mut parse, mut build, mut run) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut engines: BTreeMap<String, CachedEngine> = BTreeMap::new();
    let mut replies = Vec::with_capacity(plan.bodies.len());
    for body in &plan.bodies {
        let (request, d) = timed(|| parse_yield_request(body.as_bytes()));
        parse += d;
        let Ok(request) = request else {
            layer.check(false);
            replies.push(String::new());
            continue;
        };
        let key = request.engine_key();
        let bypassed;
        let engine = if request.cache == CacheMode::Bypass {
            let (engine, d) = timed(|| CachedEngine::build(&request, 1));
            build += d;
            bypassed = engine;
            &bypassed
        } else {
            if !engines.contains_key(&key) {
                let (engine, d) = timed(|| CachedEngine::build(&request, 1));
                build += d;
                engines.insert(key.clone(), engine);
            }
            &engines[&key]
        };
        let (reply, d) = timed(|| engine.run(&request, 1));
        run += d;
        replies.push(reply);
    }

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        threads: 1,
        cache_capacity: 32,
    })
    .expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let state = server.state();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = HttpClient::connect(&addr).expect("connect to the loopback daemon");
    // Each round trip is paired with the same body through an in-process
    // `ServerState` that sees the same request sequence (so the same cache
    // outcomes); the wire is what the round trips cost beyond it.
    let local = ServerState::new(32, 1);
    let (mut round_trips, mut handled) = (Duration::ZERO, Duration::ZERO);
    for (body, reply) in plan.bodies.iter().zip(&replies) {
        let (response, d) = timed(|| client.request("POST", "/v1/yield", body.as_bytes()));
        round_trips += d;
        layer.check(response.is_ok_and(|r| r.status == 200 && r.body == reply.as_bytes()));
        handled += timed(|| black_box(local.handle_yield(body.as_bytes()))).1;
    }
    let hit_rate = state.cache_stats().hit_rate();
    let _ = client.request("POST", "/v1/shutdown", b"");
    layer.check(daemon.join().is_ok_and(|r| r.is_ok()));

    let wire = secs(round_trips) - secs(handled);
    layer.put("serve.parse_s", secs(parse));
    layer.put("serve.build_s", secs(build));
    layer.put("serve.run_s", secs(run));
    layer.put("serve.wire_s", wire);
    layer.put("serve.hit_rate", hit_rate);
    layer.put("serve.requests", plan.bodies.len() as f64);
    layer.self_s = secs(parse + build + run) + wire;
    layer
}
