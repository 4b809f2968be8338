"""Output checks for the benchmark's commands.

Every check compares a parsed number with a reference under a tolerance,
never stdout bytes against a recording, so a correct change to an engine
or to the print format keeps it green. Each checker returns a list of
problems (empty when the output is right) and, where the command has one,
its count of effective samples.

Tolerances. A benchmark run makes hundreds of these checks and a series
of runs thousands, so a bare 95% interval, which misses the truth one time
in twenty, would fail correct code in every run. A point passes when it
lies within three printed 95% half-widths (about six standard errors) of
the reference, plus six of the reference's own standard errors, plus the
print rounding; raw yield passes unless its count has a binomial tail
below 1e-9 under the closed form.
"""

import json
import math
import re

TAIL_ALPHA = 1e-9

_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def floats(text):
    return [float(x) for x in _FLOAT.findall(text)]


def estimate(line):
    """(point, ci_lo, ci_hi) of one `<label>: <point> (95% CI [lo, hi] ...)`
    line; the interval is None when the line prints none."""
    label, _, rest = line.partition(":")
    values = floats(rest)
    if not values:
        raise ValueError(f"no estimate in {line!r}")
    ci = re.search(r"\[([^\]]*)\]", rest)
    if ci:
        lo, hi = floats(ci.group(1))[:2]
        return values[0], lo, hi
    return values[0], None, None


def find_line(stdout, label):
    for line in stdout.splitlines():
        if line.strip().startswith(label):
            return line
    raise ValueError(f"no {label!r} line")


def binomial_se(q, trials):
    return math.sqrt(max(q * (1.0 - q), 0.0) / max(trials, 1))


def near_reference(name, point, lo, hi, ref, ref_se, rounding, trials=None):
    """Problems when `point` is farther from `ref` than the tolerance."""
    if lo is not None and hi is not None:
        half = (hi - lo) / 2.0
    else:
        half = 2.0 * binomial_se(ref, trials or 1)
    tol = 3.0 * half + 6.0 * ref_se + rounding
    if abs(point - ref) > tol:
        return [f"{name} {point} is {abs(point - ref):.3g} from reference {ref} (tolerance {tol:.3g})"]
    return []


def binomial_tail(k, n, q):
    """The tail mass of count k under Binomial(n, q), on the side of the
    mean k lies: P[X <= k] below it, P[X >= k] above it (1 at the mean)."""
    mean = n * q
    if k < mean:
        counts = range(k, -1, -1)
    elif k > mean:
        counts = range(k, n + 1)
    else:
        return 1.0
    if q <= 0.0 or q >= 1.0:
        return 0.0
    log_norm = math.lgamma(n + 1)
    total = 0.0
    for j in counts:
        term = math.exp(log_norm - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * math.log(q) + (n - j) * math.log1p(-q))
        total += term
        if term <= total * 1e-17:
            break
    return min(total, 1.0)


def raw_closed_form(point, p, cells, trials, rounding=1e-4):
    """Raw yield against p^(in-scope cells): every in-scope cell survives.
    Of the success counts the printed point can stand for, the one nearest
    the closed form's mean must not sit in a tail below TAIL_ALPHA."""
    exact = p ** cells
    lo = max(math.ceil((point - rounding) * trials), 0)
    hi = min(math.floor((point + rounding) * trials), trials)
    k = min(max(round(exact * trials), lo), hi)
    if lo > hi or binomial_tail(k, trials, exact) < TAIL_ALPHA:
        return [f"raw yield {point} over {trials} trials vs closed form p^{cells} = {exact:.6g}"]
    return []


def check_yield_report(stdout, p, cells, trials, ref):
    """`dmfb yield` default report: raw against the closed form and the
    reconfigured point against its reference."""
    problems = []
    point, _, _ = estimate(find_line(stdout, "raw yield"))
    problems += raw_closed_form(point, p, cells, trials)
    point, lo, hi = estimate(find_line(stdout, "reconfigured yield"))
    problems += near_reference("reconfigured yield", point, lo, hi, ref[0], ref[1], 1e-4, trials)
    return problems, trials


def check_sweep(stdout, ps, trials, refs):
    """`dmfb sweep` CSV: one row per grid point, each near its reference."""
    rows = [line.split(",") for line in stdout.splitlines()[1:] if line.strip()]
    problems = []
    if len(rows) != len(ps):
        problems.append(f"sweep printed {len(rows)} rows for {len(ps)} grid points")
    for row, p in zip(rows, ps):
        x, y, lo, hi = (float(v) for v in row[:4])
        if abs(x - p) > 1e-9:
            problems.append(f"sweep row p={x} where {p} was asked")
            continue
        ref = refs[f"{p:.4f}"]
        problems += near_reference(f"sweep p={p:.4f}", y, lo, hi, ref[0], ref[1], 1e-4, trials)
    return problems, trials * len(ps)


def check_stratified(stdout, ref):
    """`dmfb yield --estimator stratified`: the point near its reference,
    allowing the truncated mass the estimator reports it may understate
    by; returns the printed effective samples."""
    point, lo, hi = estimate(find_line(stdout, "reconfigured yield"))
    book = find_line(stdout, "std error")
    truncated = float(re.search(r"truncated mass\s+(\S+)", book).group(1))
    eff = re.search(r"effective samples\s+(\S+)", book).group(1)
    trials = int(re.search(r"\],\s*(\d+) trials", find_line(stdout, "reconfigured yield")).group(1))
    problems = near_reference(
        "stratified yield", point, lo, hi, ref[0], ref[1], 1e-6 + truncated, trials
    )
    samples = trials if eff == "inf" else float(eff)
    return problems, samples


def dominated_rows(rows, resolution=1e-6):
    """Frontier rows another row beats: no more overhead and more yield.
    Yields within the printed `resolution` of each other cannot be
    ordered, so they never dominate each other."""
    out = []
    for a in rows:
        if any(b is not a and b["overhead"] <= a["overhead"] and b["yield"] > a["yield"] + resolution
               for b in rows):
            out.append(a["spec"])
    return out


def check_search(stdout):
    """`dmfb search --json`: a non-empty frontier free of dominated rows;
    returns the trials the search spent."""
    report = json.loads(stdout)
    frontier = report["frontier"]
    problems = []
    if not frontier:
        problems.append("search frontier is empty")
    for spec in dominated_rows(frontier):
        problems.append(f"search frontier row {spec} is dominated")
    return problems, report["trials_used"]


def check_assay(stdout, p, trials, ref):
    """`dmfb yield --assay`: raw against p^(assay cells), reconfigured and
    operational against their references, operational <= reconfigured."""
    cells = int(re.search(r"(\d+) assay cells", stdout).group(1))
    problems = []
    raw, _, _ = estimate(find_line(stdout, "raw yield"))
    problems += raw_closed_form(raw, p, cells, trials)
    points = {}
    for tier in ("reconfigured", "operational"):
        point, lo, hi = estimate(find_line(stdout, f"{tier} yield"))
        points[tier] = point
        problems += near_reference(f"{tier} yield", point, lo, hi, ref[tier][0], ref[tier][1], 1e-4, trials)
    if points["operational"] > points["reconfigured"]:
        problems.append("operational yield exceeds reconfigured yield")
    return problems, trials


def campaign_table(stdout):
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("step,"))
    header = lines[start].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[start + 1:] if line.strip()]


def check_campaign(stdout, trials, final):
    """`dmfb campaign`: the final step's verdict columns as recorded, and
    per step raw <= reconfigured and operational <= reconfigured."""
    rows = campaign_table(stdout)
    problems = []
    if not rows:
        return ["campaign printed no steps"], 0
    last = rows[-1]
    for column, expected in final.items():
        if last.get(column) != expected:
            problems.append(f"campaign final {column} is {last.get(column)!r}, expected {expected!r}")
    for row in rows:
        raw, reconf, op = (float(row[k]) for k in ("raw", "reconfigured", "operational"))
        if raw > reconf or op > reconf:
            problems.append(f"campaign step {row['step']} tiers out of order")
    return problems, trials * len(rows)


def check_reply(status, body, seen):
    """Serve reply: status 200, valid JSON, and byte-identical to every
    earlier reply to the same request body (`seen` maps body -> reply)."""
    request, reply = body
    if status != 200:
        return [f"status {status}"]
    try:
        json.loads(reply)
    except ValueError:
        return ["reply is not JSON"]
    first = seen.setdefault(request, reply)
    if first != reply:
        return ["reply differs from an earlier reply to the same body"]
    return []
