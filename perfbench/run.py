#!/usr/bin/env python3
"""End-to-end benchmark for `dmfb`.

    python3 perfbench/run.py --workload cli-naive --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The harness builds the release `dmfb`
binary and the in-process tracer (`perfbench/tracer`), then:

* `--trace 0` times the workload end to end: each pass of its command
  script (or each batch of requests to a `dmfb serve` daemon) is timed
  from this process, repeated for `--seconds`, and every output is
  checked. Metrics are medians over passes, scaled to a reference host
  speed (see `HostSpeed`).
* `--trace 1` replays the workload's inputs layer by layer in the tracer
  and prints the per-layer split, plus the tracing overhead against one
  untraced pass.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (name -> value and unit). `--references` regenerates
`references.json`, the values the output checks compare against.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
REFERENCES = HERE / "references.json"
WORKLOADS = ["cli-naive", "cli-rare", "assay-ops", "serve-mix"]

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "eff_samples_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "req_per_s": "1/s",
    "pass_frac": "ratio",
}
RATIOS = ("skip_rate", "residue_frac", "eff_ratio", "hit_rate", "coverage", "truncated_mass")

# What `perfbench-tracer calibrate` takes on the reference host, a quiet
# 2-core Xeon; every reported time is scaled to that host's speed.
REFERENCE_CALIBRATE_S = 5.0e-3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds `dmfb` and the tracer; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        fail("run from the root of a dmfb checkout (no Cargo.toml or crates/cli here)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dmfb_cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return str(target / "release" / "dmfb"), str(target / "release" / "perfbench-tracer")


class Finished:
    """One child process's outcome, with the wall time this process saw
    and the child's own CPU time and peak resident set."""

    def __init__(self, code, out, err, wall, cpu, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb


def run_measured(argv):
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Finished(
        proc.returncode, out.decode(), err.decode(), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
    )


def tracer_json(tracer, args):
    done = run_measured([tracer, *args])
    if done.code != 0:
        fail(f"tracer {args[0]} failed: {done.err.strip()}")
    return json.loads(done.out.strip().splitlines()[-1])


class HostSpeed:
    """The calibration kernel, timed between measurements.

    A shared 2-core Xeon host ran the same pass anywhere from 0.86 s to
    1.58 s within minutes, in slow and fast stretches tens of seconds
    long, and slowed the CPU time as much as the wall time.
    Each measurement is therefore scaled by reference / calibration, the
    calibration being the mean of the kernel's time just before and just
    after it. The kernel calls no dmfb code, so a change to the program
    moves the scaled times exactly as it moves the raw ones."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = []
        self.last = self._calibrate()

    def _calibrate(self):
        seconds = tracer_json(self.tracer, ["calibrate", "--rounds", "5"])["calibrate_s"]
        self.samples.append(seconds)
        return seconds

    def scale(self):
        """The factor for whatever ran since the previous call."""
        now = self._calibrate()
        factor = REFERENCE_CALIBRATE_S / ((self.last + now) / 2)
        self.last = now
        return factor

    def note(self):
        return (f"calibration median {1000 * stats.median(self.samples):.2f} ms over {len(self.samples)} "
                f"(reference {1000 * REFERENCE_CALIBRATE_S:.2f} ms)")


def pass_seed(seed, i):
    """Inputs of pass i of a run: every pass draws fresh inputs."""
    return seed * 1000 + i


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def cli_pass(name, dmfb, seed, refs, tally):
    walls = cpu = rss = samples = 0.0
    script = workloads.SCRIPTS[name](seed, refs)
    for argv, check in script:
        done = run_measured([dmfb, *argv])
        walls += done.wall
        cpu += done.cpu
        rss = max(rss, done.rss_mb)
        if done.code != 0:
            tally.record(argv[0], [f"exit {done.code}: {done.err.strip()[:200]}"])
            continue
        try:
            problems, n = check(done.out)
        except (ValueError, KeyError, AttributeError, IndexError, StopIteration) as e:
            problems, n = [f"unparseable output ({e!r})"], 0
        tally.record(argv[0], problems)
        samples += n
    return {"wall": walls, "cpu": cpu, "rss": rss, "samples": samples, "ops": len(script)}


def measure_cli(name, dmfb, tracer, seed, seconds, refs, tally):
    speed = HostSpeed(tracer)
    setup = tracer_json(tracer, ["setup", "--engines", workloads.SETUP[name], "--seconds", "1"])
    setup_s = setup["setup_s"] * speed.scale()
    cli_pass(name, dmfb, pass_seed(seed, 0), refs, tally)  # warm-up, checked
    speed.scale()
    passes, raw = [], []
    start = time.perf_counter()
    while len(passes) < 3 or time.perf_counter() - start < seconds:
        p = cli_pass(name, dmfb, pass_seed(seed, len(passes) + 1), refs, tally)
        factor = speed.scale()
        raw.append(p["wall"])
        p["wall"] *= factor
        p["cpu"] *= factor
        passes.append(p)
    walls = [p["wall"] for p in passes]
    return {
        "wall_s": stats.median(walls),
        "cpu_s": stats.median([p["cpu"] for p in passes]),
        "setup_s": setup_s,
        "peak_rss_mb": stats.median([p["rss"] for p in passes]),
        "eff_samples_per_s": stats.median([p["samples"] / p["wall"] for p in passes]),
        "p50_ms": 1000.0 * stats.median(walls),
        "p99_ms": 1000.0 * stats.percentile(walls, 99),
        "req_per_s": sum(p["ops"] for p in passes) / sum(walls),
    }, (f"{len(passes)} passes of the command script (spread {stats.spread(walls):.1%}); "
        f"unscaled median wall {stats.median(raw):.4f} s; {speed.note()}")


class Daemon:
    """A `dmfb serve` child on a free loopback port."""

    def __init__(self, dmfb):
        self.port, self.rss_mb = None, 0.0
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [dmfb, "serve", "--addr", "127.0.0.1:0", "--workers", str(workloads.SERVE_WORKERS), "--threads", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT,
        )
        line = self.proc.stdout.readline().decode()
        found = re.search(r"http://[^:]+:(\d+)", line)
        if not found:
            self.proc.kill()
            self.proc.wait()
            fail(f"dmfb serve did not report its address: {line!r}")
        self.port = int(found.group(1))
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                conn.request("GET", "/v1/health", headers={"Connection": "close"})
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > 30:
                self.stop()
                fail("dmfb serve never answered /v1/health")
            time.sleep(0.0002)
        self.ready_s = time.perf_counter() - start

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """Asks for a graceful shutdown, then reaps; returns peak RSS (MiB)."""
        if self.proc.returncode is None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                conn.request("POST", "/v1/shutdown", body=b"")
                conn.getresponse().read()
                conn.close()
            except (OSError, http.client.HTTPException):
                self.proc.kill()
            timer = threading.Timer(10, self.proc.kill)
            timer.start()
            _, status, usage = os.wait4(self.proc.pid, 0)
            timer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.close()
            self.rss_mb = usage.ru_maxrss / 1024.0
        return self.rss_mb


def serve_batch(conns, bodies):
    """Sends one batch closed-loop: connection k sends bodies k, k+n, ...,
    each only after the previous reply. Returns (status, reply, seconds)
    per body and the batch wall time."""
    results = [None] * len(bodies)

    def client(k):
        conn = conns[k]
        for i in range(k, len(bodies), len(conns)):
            start = time.perf_counter()
            try:
                conn.request("POST", "/v1/yield", body=bodies[i])
                response = conn.getresponse()
                reply = response.read().decode()
                results[i] = (response.status, reply, time.perf_counter() - start)
            except (OSError, http.client.HTTPException) as e:
                conn.close()
                results[i] = (0, repr(e), time.perf_counter() - start)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(len(conns))]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, time.perf_counter() - start


def check_batch(bodies, results, seen, tally):
    for body, (status, reply, _) in zip(bodies, results):
        tally.record("request", checks.check_reply(status, (body, reply), seen))


def measure_serve(dmfb, tracer, seed, seconds, tally):
    speed = HostSpeed(tracer)
    setups = []
    for _ in range(5):
        daemon = Daemon(dmfb)
        setups.append(daemon.ready_s)
        daemon.stop()
    setup_s = stats.median(setups) * speed.scale()
    bodies = workloads.mix_bodies(seed)
    samples = sum(workloads.body_samples(b) for b in bodies)
    seen = {}
    daemon = Daemon(dmfb)
    try:
        conns = [http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
                 for _ in range(workloads.SERVE_CONNECTIONS)]
        results, _ = serve_batch(conns, bodies)  # warm-up: fills the engine cache
        check_batch(bodies, results, seen, tally)
        speed.scale()
        latencies, walls, cpus, raw = [], [], [], []
        start = time.perf_counter()
        while len(walls) < 3 or time.perf_counter() - start < seconds:
            cpu0 = daemon.cpu_s()
            results, wall = serve_batch(conns, bodies)
            cpu = daemon.cpu_s() - cpu0
            factor = speed.scale()
            raw.append(wall)
            walls.append(wall * factor)
            cpus.append(cpu * factor)
            latencies += [r[2] * factor for r in results]
            check_batch(bodies, results, seen, tally)
        for conn in conns:
            conn.close()
    finally:
        rss = daemon.stop()
    return {
        "wall_s": stats.median(walls),
        "cpu_s": stats.median(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "eff_samples_per_s": stats.median([samples / w for w in walls]),
        "p50_ms": 1000.0 * stats.percentile(latencies, 50),
        "p99_ms": 1000.0 * stats.percentile(latencies, 99),
        "req_per_s": len(latencies) / sum(walls),
    }, (f"{len(walls)} batches of {len(bodies)} requests; {len(latencies)} latency samples, "
        f"{stats.samples_beyond(len(latencies), 99)} beyond p99; unscaled median batch "
        f"{stats.median(raw):.4f} s; {speed.note()}")


def untraced_once(name, dmfb, seed, refs, tally):
    """Wall time of one untraced pass on the inputs the tracer replays
    (for serve, one cold batch: the tracer's serve layer starts cold too)."""
    if name != "serve-mix":
        return cli_pass(name, dmfb, seed, refs, tally)["wall"]
    bodies = workloads.mix_bodies(seed)
    daemon = Daemon(dmfb)
    try:
        conns = [http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
                 for _ in range(workloads.SERVE_CONNECTIONS)]
        results, wall = serve_batch(conns, bodies)
        check_batch(bodies, results, {}, tally)
        for conn in conns:
            conn.close()
    finally:
        daemon.stop()
    return wall


def measure_trace(name, dmfb, tracer, seed, seconds, refs, tally):
    start = time.perf_counter()
    speed = HostSpeed(tracer)
    seed0 = pass_seed(seed, 0)
    untraced = untraced_once(name, dmfb, seed0, refs, tally) * speed.scale()
    left = max(seconds - (time.perf_counter() - start), 0.0)
    traced = tracer_json(tracer, [*workloads.trace_plan(name, seed0), "--seconds", f"{left:.3f}"])
    factor = speed.scale()
    tally.attempted += traced["checks"]
    tally.failed += traced["failed"]
    if traced["failed"]:
        tally.problems.append(f"tracer: {traced['failed']} of {traced['checks']} self-checks failed")
    metrics = {name: value * factor if layer_unit(name) == "s" else value
               for name, value in traced["metrics"].items()}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return metrics, f"{traced['passes']} tracer passes; untraced pass {untraced:.3f} s; {speed.note()}"


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.rsplit(".", 1)[-1] in RATIOS:
        return "ratio"
    return "count"


def source_digest():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    paths += [p for top in ("crates", "vendor") for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def env_stamp(tracer, seed):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    compiled = tracer_json(tracer, ["env"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "avx2": compiled["avx2"],
        "rustc": rustc,
        "commit": source_digest(),
        "seed": seed,
    }


def make_references(dmfb):
    """High-precision reference values for the output checks (a few
    minutes on two cores)."""
    def run(argv):
        done = run_measured([dmfb, *argv, "--threads", "0"])
        if done.code != 0:
            fail(f"reference run failed: {argv}: {done.err}")
        return done.out

    design = workloads.DESIGN
    table = {}
    trials = 4_000_000
    out = run(["sweep", *design, "--batched", "--from", "0.90", "--to", "1.00", "--steps", "11",
               "--trials", str(trials), "--seed", "424242"])
    for line in out.splitlines()[1:]:
        p, y = (float(v) for v in line.split(",")[:2])
        table[f"{p:.4f}"] = [y, checks.binomial_se(y, trials) + 5e-5]
    out = run(["sweep", *design, "--estimator", "stratified", "--from", "0.99", "--to", "1.00", "--steps", "11",
               "--trials", "4000000", "--seed", "434343"])
    for line in out.splitlines()[1:]:
        p, y, _, _, se = (float(v) for v in line.split(",")[:5])
        # Six printed decimals; truncated mass is below the default 1e-6.
        candidate = [y, se + 5e-7 + 1e-6]
        key = f"{p:.4f}"
        if key not in table or candidate[1] < table[key][1]:
            table[key] = candidate
    assay_trials = 200_000
    out = run(["yield", "--assay", workloads.PANEL, "--p", str(workloads.ASSAY_P), "--trials",
               str(assay_trials), "--seed", "454545"])
    assay = {}
    for tier in ("reconfigured", "operational"):
        y, _, _ = checks.estimate(checks.find_line(out, f"{tier} yield"))
        assay[tier] = [y, checks.binomial_se(y, assay_trials) + 5e-5]
    finals = set()
    for seed in range(1, 11):
        rows = checks.campaign_table(run(["campaign", "--name", workloads.CAMPAIGN, "--trials", "100",
                                          "--seed", str(seed)]))
        finals.add((rows[-1]["reconf"], rows[-1]["op"]))
    if len(finals) != 1:
        fail(f"campaign final verdicts depend on the seed: {finals}")
    reconf, op = finals.pop()
    return {
        "how": "python3 perfbench/run.py --references (naive batched sweep at 4M trials, stratified sweep "
               "over 0.99..1.00 at 4M per point, assay at 200k trials, campaign over seeds 1-10); "
               "each value is [point, standard error including print rounding]",
        "reconfigured": {workloads.CHIP: dict(sorted(table.items()))},
        "assay": {f"{workloads.PANEL}@{workloads.ASSAY_P:.4f}": assay},
        "campaign": {workloads.CAMPAIGN: {"reconf": reconf, "op": op}},
    }


def report(env, note, metrics, units, tally):
    print(f"env: {json.dumps(env)}")
    print(f"samples: {note}")
    for name in sorted(metrics):
        print(f"  {name:<28} {metrics[name]:>16.6g} {units(name)}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", action="store_true", help="regenerate references.json and exit")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    dmfb, tracer = build()
    if args.references:
        REFERENCES.write_text(json.dumps(make_references(dmfb), indent=2) + "\n")
        print(f"wrote {REFERENCES.relative_to(ROOT)}", file=sys.stderr)
        return
    if args.workload is None:
        fail("--workload is required")
    refs = json.loads(REFERENCES.read_text())
    env = env_stamp(tracer, args.seed)
    tally = Tally()
    name = args.workload
    if args.trace:
        metrics, note = measure_trace(name, dmfb, tracer, args.seed, args.seconds, refs, tally)
        report(env, note, metrics, layer_unit, tally)
        return
    if name == "serve-mix":
        metrics, note = measure_serve(dmfb, tracer, args.seed, args.seconds, tally)
    else:
        metrics, note = measure_cli(name, dmfb, tracer, args.seed, args.seconds, refs, tally)
    metrics["pass_frac"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    report(env, note, metrics, E2E_UNITS.get, tally)


if __name__ == "__main__":
    main()
