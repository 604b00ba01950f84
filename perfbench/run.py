"""Trial-throughput benchmark of randcomplex's `experiment` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload is one acceptance regime. A run calls
`randcomplex.cli.main(["experiment", ..., "--workers", "1"])` in-process,
one call after another (a closed loop with one caller), for S seconds; call
i of a run uses master seed N * CALLS_PER_SEED + i. Every call's CSV and
JSON bytes are checked (see `verify_calls`). With --trace 0 the last line
reports the end-to-end metrics; with --trace 1 every call is also replayed
through the traced pipeline copy in mirror.py, and the last line reports the
per-layer metrics. --smoke runs every workload with tiny trial counts, both
traced and untraced, as the benchmark's own test. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests"

# Trials per call keep one call near 0.8 s on a 2-core Xeon, so a 20 s run
# holds about 25 calls and the median call time is steady across seeds.
WORKLOADS = {
    "cech-k3-n2000": (
        {"model": "cech", "k": 3, "d": 2, "n": 2000, "alpha": 3.0}, 25),
    "rips-k1-n500": (
        {"model": "rips", "k": 1, "d": 2, "n": 500, "alpha": 2.0}, 10),
    "er-k1-n400": (
        {"model": "er_clique", "k": 1, "n": 400, "gamma": 0.7}, 50),
    "rips-k2-n150": (
        {"model": "rips", "k": 2, "d": 2, "n": 150, "alpha": 1.0}, 100),
}
CALLS_PER_SEED = 10_000
SETUP_PROBES = 9
SMOKE_TRIALS = 2
# Duration of reference_seconds() on a quiet 2-core Xeon; call times are
# rescaled to this host speed (see reference_seconds).
REFERENCE_NOMINAL_S = 0.040
# Start-up time of a bare interpreter that imports numpy, on the same host;
# setup probes are rescaled to it (see measure_setup).
BASELINE_CODE = "import numpy; print('ready', flush=True)"
BASELINE_NOMINAL_S = 0.120

TRIAL_SPANS = (
    "generators.sample_points",
    "generators.geometric_graph",
    "generators.gen_er_graph",
    "generators.clique_complex",
    "generators.cech_complex",
    "homology.betti_numbers",
    "homology.boundary_matrix",
    "homology.rank_gf.d1",
    "homology.rank_gf.d2plus",
    "homology.beta0_check",
    "census.empty_simplex_count",
    "census.isolated_empty_simplex_count",
    "census.y_count",
    "census.z_count",
    "census.cross_polytope_counts",
    "census.faces_on_large_components",
    "census.subgraph_counts",
)
CALL_SPANS = ("experiments.limit_distances", "experiments.serialize")
TRIAL_COUNTS = {
    "generators.edges": "edges",
    "generators.faces": "faces",
    "homology.columns": "columns",
    "census.subgraph_counts.subsets": "subsets",
}
RATIOS = {
    "generators.cech_complex.accept_ratio": ("cech_accepted", "cech_candidates"),
    "homology.pivot_ratio": ("ranks", "columns"),
    "census.empty_simplex_count.hit_ratio": ("s_hits", "s_candidates"),
}


class BenchError(Exception):
    """The benchmark cannot run here: the program is missing or broken."""


def import_program() -> None:
    """Import randcomplex from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "randcomplex" / "__init__.py").is_file():
        raise BenchError(f"no randcomplex sources under {src}")
    sys.path.insert(0, str(src))
    import randcomplex
    import randcomplex.cli

    if Path(randcomplex.__file__).resolve().parent != src / "randcomplex":
        raise BenchError(f"imported randcomplex from {randcomplex.__file__}")


def master_seed(seed: int, i: int) -> int:
    return seed * CALLS_PER_SEED + i


@dataclass
class Call:
    """One `experiment` call: its exit code, wall time and output bytes."""

    master: int
    code: int
    seconds: float
    csv: str
    json: str
    stderr: str


def call_cli(regime: dict, trials: int, master: int, workdir: Path) -> Call:
    """Run the experiment CLI in-process; only `cli.main` is timed."""
    from randcomplex import cli

    out_csv, out_json = workdir / "trials.csv", workdir / "summary.json"
    for path in (out_csv, out_json):
        path.unlink(missing_ok=True)
    argv = ["experiment"]
    for key, value in regime.items():
        argv += [f"--{key}", str(value)]
    argv += ["--trials", str(trials), "--seed", str(master), "--workers", "1",
             "--out-csv", str(out_csv), "--out-json", str(out_json)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    csv = out_csv.read_text() if out_csv.exists() else ""
    json_text = out_json.read_text() if out_json.exists() else ""
    return Call(master, code, seconds, csv, json_text, stderr.getvalue())


def _extend_clique(face: tuple[int, ...], nbrs) -> list[tuple[int, ...]]:
    cand = nbrs[face[0]]
    for v in face[1:]:
        cand = cand & nbrs[v]
    return [face + (w,) for w in sorted(cand) if w > face[-1]]


def reference_seconds() -> float:
    """Time a fixed pure-Python loop that shares no code with the program.

    Speed on a shared host drifts by up to a fifth over tens of seconds,
    which swamps run-to-run comparisons of raw wall time. This loop, in the set-and-tuple style of the program's
    clique expansions, is timed before and after every call; each call time
    is rescaled by REFERENCE_NOMINAL_S over the mean of its two references.
    """
    start = time.perf_counter()
    n = 300
    nbrs = [frozenset((i * 7 + j * 13) % n for j in range(1, 9)) - {i} for i in range(n)]
    total = 0
    for _ in range(24):
        faces = [(u, v) for u in range(n) for v in nbrs[u] if v > u]
        for face in faces:
            total += len(_extend_clique(face, nbrs))
        by_first: dict[int, list] = {}
        for face in faces:
            by_first.setdefault(face[0], []).append(face)
        total += sum(len(group) for group in by_first.values())
    return time.perf_counter() - start


def parse_rows(csv: str) -> list[dict[str, int]]:
    lines = csv.splitlines()
    if len(lines) < 3:
        raise ValueError("CSV has no trial rows")
    columns = lines[1].split(",")[1:]
    rows = []
    for t, line in enumerate(lines[2:]):
        cells = line.split(",")
        if int(cells[0]) != t or len(cells) != len(columns) + 1:
            raise ValueError(f"malformed CSV row {t}")
        rows.append(dict(zip(columns, map(int, cells[1:]))))
    return rows


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests(workload: str, trials: int) -> dict[str, list[str]]:
    """Recorded [csv, json] SHA-256 digests by master seed, if any apply."""
    path = DIGESTS / f"{workload}.json"
    if not path.is_file():
        return {}
    entry = json.loads(path.read_text())
    return entry["calls"] if entry["trials"] == trials else {}


def verify_calls(workload: str, spec, calls: list[Call], trials: int) -> list[tuple[int, str]]:
    """Check every byte of each call's output; returns (master seed, message) failures.

    A call fails on a non-zero exit, on CSV or JSON bytes that differ from
    those rebuilt from its own rows, on a digest mismatch for a recorded
    master seed, or on a row that differs from the public-function pipeline
    in mirror.py. Rows checked against mirror.py: all of them for the first
    call, and row i mod trials of call i.
    """
    import mirror

    digests = load_digests(workload, trials)
    quiet = mirror.Tracer(enabled=False)
    failures = []
    for i, call in enumerate(calls):
        m = call.master
        if call.code != 0:
            failures.append((m, f"exit {call.code}: {call.stderr.strip()}"))
            continue
        try:
            rows = parse_rows(call.csv)
            rebuilt = mirror.rebuild_outputs(spec, trials, m, rows, quiet)
        except (ValueError, KeyError, IndexError) as exc:
            failures.append((m, f"unreadable output: {exc}"))
            continue
        if rebuilt != (call.csv, call.json):
            failures.append((m, "output bytes differ from those rebuilt from its rows"))
            continue
        recorded = digests.get(str(m))
        if recorded and recorded != [sha256(call.csv), sha256(call.json)]:
            failures.append((m, "output digest differs from the recorded one"))
            continue
        for t in range(trials) if i == 0 else [i % trials]:
            row = mirror.trial_row(spec, m, t, quiet).row
            if row != rows[t]:
                failures.append((m, f"trial {t}: row {rows[t]} != public pipeline {row}"))
                break
    return failures


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the program's sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(workload: str, seed: int, seconds: float, trace: int, trials: int, probes: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": workload,
        "regime": WORKLOADS[workload][0],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "trials_per_call": trials,
        "setup_probes": probes,
        "workers": 1,
    }


def probe_setup(workload: str, seed: int) -> int:
    """Child side of the setup measurement: import, one warm-up call, report."""
    import_program()
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        call = call_cli(WORKLOADS[workload][0], 1, master_seed(seed, 0), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if call.code != 0:
        print(call.stderr, file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


def spawn_until_ready(argv: list[str]) -> float:
    """Seconds from spawning `argv` to its "ready" line; waits for its exit."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{' '.join(argv[1:])} failed: {err.strip()}")
    return elapsed


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up call.

    Each probe is rescaled by BASELINE_NOMINAL_S over the mean of the bare
    numpy start-ups spawned just before and after it. Start-up time drifts
    with host load that reference_seconds() does not track: on 180 probes,
    the standard deviation of 9-probe medians was 11% raw or rescaled by
    reference_seconds(), and 1.5% rescaled by the bare start-ups.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)]
    baseline = [sys.executable, "-c", BASELINE_CODE]
    times, baselines = [], [spawn_until_ready(baseline)]
    for _ in range(probes):
        times.append(spawn_until_ready(probe))
        baselines.append(spawn_until_ready(baseline))
    return rescale(times, baselines, BASELINE_NOMINAL_S)


def rescale(seconds: list[float], references: list[float], nominal: float) -> list[float]:
    """Rescale each timing to a nominal host speed, by the references around it."""
    return [
        s * 2 * nominal / (before + after)
        for s, before, after in zip(seconds, references, references[1:])
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def traced_call(spec, call: Call, trials: int, tracer, trial_counts: list[dict]) -> list[tuple[int, str]]:
    """Replay a call through mirror.py with spans; compare bytes with the CLI."""
    import mirror

    rows = []
    for t in range(trials):
        tracer.trial_id = f"{call.master}:{t}"
        with tracer.span("experiments.trial"):
            st = mirror.trial_row(spec, call.master, t, tracer)
        with tracer.span("decompose"):
            try:
                trial_counts.append(mirror.decompose(st, tracer))
            except AssertionError as exc:
                return [(call.master, f"trial {t}: {exc}")]
        rows.append(st.row)
    tracer.trial_id = f"{call.master}:call"
    if mirror.rebuild_outputs(spec, trials, call.master, rows, tracer) != (call.csv, call.json):
        return [(call.master, "traced pipeline bytes differ from the CLI's")]
    return []


def layer_metrics(spans, trial_counts: list[dict], untraced_trial_ms: float) -> dict[str, tuple[float, str]]:
    """Per-trial medians of span times and counts, plus run-wide ratios."""
    per_id: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, start, end, parent, trial_id in spans:
        per_id[trial_id][name] += end - start
        if parent >= 0 and spans[parent][0] == "experiments.trial":
            per_id[trial_id]["experiments.trial.children"] += end - start
    trials = [d for tid, d in per_id.items() if not tid.endswith(":call")]
    calls = [d for tid, d in per_id.items() if tid.endswith(":call")]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def median_ms(group, name):
        return median(d.get(name, 0) for d in group) / 1e6

    metrics = {f"{name}.ms": (median_ms(trials, name), "ms") for name in TRIAL_SPANS}
    metrics.update({f"{name}.ms": (median_ms(calls, name), "ms") for name in CALL_SPANS})
    metrics["experiments.trial.ms"] = (median_ms(trials, "experiments.trial.children"), "ms")
    metrics["trace.overhead_ratio"] = (
        median_ms(trials, "experiments.trial") / untraced_trial_ms, "ratio")
    for metric, key in TRIAL_COUNTS.items():
        metrics[metric] = (float(median(c.get(key, 0) for c in trial_counts)), "count")
    for metric, (num, den) in RATIOS.items():
        total = sum(c.get(den, 0) for c in trial_counts)
        metrics[metric] = (sum(c.get(num, 0) for c in trial_counts) / total if total else 0.0, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int,
        trials: int | None = None, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object and the run's details."""
    import mirror
    from randcomplex.experiments import RegimeSpec

    regime, default_trials = WORKLOADS[workload]
    trials = trials or default_trials
    spec = RegimeSpec(**regime)
    OUT.mkdir(exist_ok=True)
    setup_times = measure_setup(workload, seed, probes) if trace == 0 else []
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = mirror.Tracer(enabled=True)
    trial_counts: list[dict] = []
    failures: list[tuple[int | str, str]] = []
    calls: list[Call] = []
    try:
        warm = call_cli(regime, 1, master_seed(seed, 0), workdir)
        if warm.code != 0:
            failures.append(("warm-up", warm.stderr.strip()))
        references = [reference_seconds()]
        deadline = time.perf_counter() + seconds
        while not calls or time.perf_counter() < deadline:
            call = call_cli(regime, trials, master_seed(seed, len(calls)), workdir)
            calls.append(call)
            references.append(reference_seconds())
            if trace and call.code == 0:
                failures += traced_call(spec, call, trials, tracer, trial_counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures += verify_calls(workload, spec, calls, trials)
    attempted = len(calls)
    failed = len({m for m, _ in failures} & {c.master for c in calls})

    call_ms = [c.seconds * 1e3 for c in calls]
    q1, med, q3 = quartiles(rescale(call_ms, references, REFERENCE_NOMINAL_S))
    wall_med = statistics.median(call_ms)
    info = {
        "stamp": stamp(workload, seed, seconds, trace, trials, probes),
        "calls": attempted,
        "call_ms_quartiles": [q1, med, q3],
        "wall_call_ms_quartiles": list(quartiles(call_ms)),
        "wall_trials_per_s": trials / (wall_med / 1e3),
        "reference_ms_median": statistics.median(references) * 1e3,
        "failed_frac": failed / attempted,
        "failures": [f"master_seed={m}: {msg}" for m, msg in failures],
    }
    if trace:
        metrics = layer_metrics(tracer.spans, trial_counts, wall_med / trials)
        OUT.joinpath(f"trace-{workload}-seed{seed}.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in tracer.spans))
    else:
        info["setup_s_samples"] = setup_times
        metrics = {
            "trials_per_s": (trials / (med / 1e3), "trials/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.joinpath(f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**info, "result": result}, indent=2) + "\n")
    return {"result": result, "info": info}


def report(workload: str, outcome: dict) -> None:
    """Human-readable lines: the stamp, every metric with its unit, failures."""
    info, result = outcome["info"], outcome["result"]
    print("# stamp " + json.dumps(info["stamp"], sort_keys=True))
    q1, med, q3 = info["call_ms_quartiles"]
    w1, wmed, w3 = info["wall_call_ms_quartiles"]
    print(f"# {workload}: {info['calls']} calls, rescaled call ms p25/p50/p75 = "
          f"{q1:.1f}/{med:.1f}/{q3:.1f}, wall call ms = {w1:.1f}/{wmed:.1f}/{w3:.1f}, "
          f"wall trials/s = {info['wall_trials_per_s']:.4g}, "
          f"reference = {info['reference_ms_median']:.2f} ms")
    print(f"# {workload}: failed_frac = {info['failed_frac']:.4g} ratio")
    for name, m in result["metrics"].items():
        print(f"# {workload}: {name} = {m['value']:.6g} {m['unit']}")
    for msg in info["failures"]:
        print(f"# FAILED {msg}")


def smoke() -> int:
    """Every workload, traced and untraced, with tiny trial counts."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            outcome = run(workload, 1, 0.0, trace, trials=SMOKE_TRIALS, probes=1)
            report(workload, outcome)
            ok = ok and outcome["result"]["correct"]
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload with tiny trial counts")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2^40)")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.probe_setup:
            return probe_setup(args.workload, args.seed)
        import_program()
        if args.smoke:
            return smoke()
        outcome = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, outcome)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
