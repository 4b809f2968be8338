"""The four benchmark workloads: the commands each runs, the checks on
their outputs, the engines its set-up builds, and the plan its traced run
replays in process.

Budgets are sized so one pass of a CLI script takes about a second on a
2-core Xeon at `--threads 1`, giving a dozen passes per 15-second run.
"""

import json

import checks

CHIP = "dtmb26:600"
DESIGN = ["--design", "dtmb26", "--primaries", "600"]

NAIVE_P = 0.99
NAIVE_TRIALS = 40_000
NAIVE_GRID = (0.90, 1.00, 11)

RARE_P = 0.999
RARE_BUDGET = 500_000
RARE_GRID = (0.99, 1.00, 11)
RARE_SWEEP_TRIALS = 150_000
SEARCH_TARGET = 0.999
SEARCH_TRIALS = 4_000
SEARCH_MAX_PRIMARIES = 200

PANEL = "ivd-panel"
ASSAY_P = 0.95
ASSAY_TRIALS = 600
CAMPAIGN = "edge-column-wipeout"
CAMPAIGN_TRIALS = 400

SERVE_BATCH = 256
SERVE_BYPASS_EVERY = 16
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2


def grid(lo, hi, steps):
    """The survival grid `dmfb sweep --from lo --to hi --steps n` runs."""
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def threads():
    return ["--threads", "1"]


def cli_naive(seed, refs):
    ref = refs["reconfigured"][CHIP]
    ps = grid(*NAIVE_GRID)
    lo, hi, steps = NAIVE_GRID
    return [
        (
            ["yield", *DESIGN, "--p", str(NAIVE_P), "--trials", str(NAIVE_TRIALS), "--seed", str(seed), *threads()],
            lambda out: checks.check_yield_report(out, NAIVE_P, 600, NAIVE_TRIALS, ref[f"{NAIVE_P:.4f}"]),
        ),
        (
            ["sweep", *DESIGN, "--batched", "--from", str(lo), "--to", str(hi), "--steps", str(steps),
             "--trials", str(NAIVE_TRIALS), "--seed", str(seed), *threads()],
            lambda out: checks.check_sweep(out, ps, NAIVE_TRIALS, ref),
        ),
    ]


def cli_rare(seed, refs):
    ref = refs["reconfigured"][CHIP]
    ps = grid(*RARE_GRID)
    lo, hi, steps = RARE_GRID
    return [
        (
            ["yield", *DESIGN, "--estimator", "stratified", "--p", str(RARE_P), "--trials", str(RARE_BUDGET),
             "--seed", str(seed), *threads()],
            lambda out: checks.check_stratified(out, ref[f"{RARE_P:.4f}"]),
        ),
        (
            ["sweep", *DESIGN, "--batched", "--from", str(lo), "--to", str(hi), "--steps", str(steps),
             "--trials", str(RARE_SWEEP_TRIALS), "--seed", str(seed), *threads()],
            lambda out: checks.check_sweep(out, ps, RARE_SWEEP_TRIALS, ref),
        ),
        (
            ["search", "--target-yield", str(SEARCH_TARGET), "--p", str(RARE_P), "--trials", str(SEARCH_TRIALS),
             "--max-primaries", str(SEARCH_MAX_PRIMARIES), "--seed", str(seed), "--json", *threads()],
            checks.check_search,
        ),
    ]


def assay_ops(seed, refs):
    ref = refs["assay"][f"{PANEL}@{ASSAY_P:.4f}"]
    final = refs["campaign"][CAMPAIGN]
    return [
        (
            ["yield", "--assay", PANEL, "--p", str(ASSAY_P), "--trials", str(ASSAY_TRIALS), "--seed", str(seed), *threads()],
            lambda out: checks.check_assay(out, ASSAY_P, ASSAY_TRIALS, ref),
        ),
        (
            ["campaign", "--name", CAMPAIGN, "--trials", str(CAMPAIGN_TRIALS), "--seed", str(seed), *threads()],
            lambda out: checks.check_campaign(out, CAMPAIGN_TRIALS, final),
        ),
    ]


SCRIPTS = {"cli-naive": cli_naive, "cli-rare": cli_rare, "assay-ops": assay_ops}

# Engines `setup_s` builds for each CLI workload (tracer `setup` tokens).
SETUP = {
    "cli-naive": f"hex:{CHIP}",
    "cli-rare": f"hex:{CHIP},search:{SEARCH_MAX_PRIMARIES}",
    "assay-ops": f"ivd:{PANEL}",
}

# The mix's engine keys: all three schemes, both estimators, both defect
# models and every tier, each at 64-256 trials. An operational request
# costs about 1 ms per trial, so it is sent once per batch (under 1% of
# requests); the bypass builds, not it, then set p99.
OPERATIONAL = {"tier": "operational", "assay": PANEL, "p": 0.95, "trials": 64}
MIX = [
    {"design": "dtmb26", "primaries": 600, "p": 0.99, "trials": 256},
    {"design": "dtmb26", "primaries": 100, "estimator": "stratified", "p": 0.999, "trials": 256},
    {"tier": "raw", "design": "dtmb16", "primaries": 100, "p": 0.99, "trials": 128},
    {"scheme": "square-dtmb", "pattern": "checkerboard", "width": 16, "height": 16, "p": 0.97, "trials": 256},
    {"scheme": "spare-rows", "width": 8, "module_rows": 6, "spare_rows": 2, "estimator": "stratified",
     "p": 0.995, "trials": 256},
    {"design": "dtmb44", "primaries": 200, "defect_model": "clustered", "trials": 64},
    {"scheme": "square-dtmb", "pattern": "stripes", "width": 12, "height": 12, "p": 0.95, "trials": 256},
]
BYPASS = {"design": "dtmb26", "primaries": 2400, "p": 0.99, "trials": 64, "cache": "bypass"}


def mix_bodies(seed):
    """One batch of request bodies. The batch repeats for the whole run, so
    identical bodies recur and their replies can be compared byte for
    byte."""
    bodies = []
    for i in range(SERVE_BATCH):
        if i % SERVE_BYPASS_EVERY == SERVE_BYPASS_EVERY - 1:
            request = dict(BYPASS)
        elif i == 0:
            request = dict(OPERATIONAL)
        else:
            request = dict(MIX[i % len(MIX)])
        request["seed"] = seed * SERVE_BATCH + i
        bodies.append(json.dumps(request))
    return bodies


def body_samples(body):
    request = json.loads(body)
    return request.get("trials", 10_000)


def trace_plan(name, seed):
    """Tracer `trace` arguments: the workload's own inputs on the layers
    its commands reach (`on-path`), small probe budgets on the rest. CLI
    workloads send their own request shape through the serve layer at the
    mix's trial scale."""
    probe = {
        "chip": CHIP, "block-chip": CHIP, "block-p": NAIVE_P, "block-trials": 2_000,
        "report-p": NAIVE_P, "report-trials": 2_000, "strat-p": RARE_P, "strat-budget": 4_000,
        "search-target": SEARCH_TARGET, "search-p": RARE_P, "search-trials": 500, "search-max-primaries": 30,
        "panel": PANEL, "op-p": ASSAY_P, "op-trials": 20, "campaign": CAMPAIGN,
    }
    if name == "cli-naive":
        plan = dict(probe, **{
            "on-path": "build,block,report", "block-trials": NAIVE_TRIALS,
            "report-trials": NAIVE_TRIALS, "strat-p": NAIVE_P,
        })
        bodies = [{"design": "dtmb26", "primaries": 600, "p": NAIVE_P, "trials": 256},
                  {"tier": "raw", "design": "dtmb26", "primaries": 600, "p": NAIVE_P, "trials": 256}]
    elif name == "cli-rare":
        plan = dict(probe, **{
            "on-path": "build,block,stratify,search", "block-p": RARE_P, "block-trials": RARE_SWEEP_TRIALS,
            "report-p": RARE_P, "strat-budget": RARE_BUDGET, "search-trials": SEARCH_TRIALS,
            "search-max-primaries": SEARCH_MAX_PRIMARIES,
        })
        bodies = [{"design": "dtmb26", "primaries": 600, "estimator": "stratified", "p": RARE_P, "trials": 256}]
    elif name == "assay-ops":
        plan = dict(probe, **{
            "on-path": "build,block,operational", "chip": "ivd", "block-chip": "ivd", "block-p": ASSAY_P,
            "block-trials": ASSAY_TRIALS, "report-p": ASSAY_P, "strat-p": ASSAY_P, "search-p": ASSAY_P,
            "op-trials": ASSAY_TRIALS,
        })
        bodies = [{"tier": "operational", "assay": PANEL, "p": ASSAY_P, "trials": 64}]
    else:
        plan = dict(probe, **{"on-path": "build,serve"})
        bodies = None
    args = ["trace", "--seed", str(seed)]
    for key, value in plan.items():
        args += [f"--{key}", str(value)]
    if bodies is None:
        bodies = mix_bodies(seed)
    else:
        bodies = [json.dumps(dict(b, seed=seed)) for b in bodies]
    for body in bodies:
        args += ["--body", body]
    return args
