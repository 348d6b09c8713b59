"""The benchmark's workloads, their correctness checks and their metrics.

Every workload is one client in a closed loop: the next command starts only
when the previous one has finished.  End-to-end numbers come from untraced
runs; a traced run (``trace=True``) reports the per-layer numbers instead.

A "query" below is one wproj command: a ``wproj census`` process in the
census workloads, one in-process ``wproj.cli.main(argv)`` call in
``queries-large``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import oracle
import querygen
from child import TRACE_PREFIX

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_REPEATS = 15
TIMEOUT_S = 150  # a command still running after this is killed and counts as failed
CENSUS_SAMPLE = 60  # census records checked by the oracle per process
# Query throughput is the median over windows of this much serving time, so
# a short stall on the machine moves one window, not the whole figure.
WINDOW_S = 1.0

# (name, unit); the order is the order of the report
END_TO_END = [
    ("setup_s", "s"),
    ("vectors_per_s", "vectors/s"),
    ("queries_per_s", "queries/s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
]
PER_LAYER = [
    ("kernel.canonical_pair.calls", "count"),
    ("kernel.canonical_pair.total_s", "s"),
    ("kernel.canonical_pair.us_per_call", "us"),
    ("kernel.pure_calls", "count"),
    *[(f"weights.{fn}.{stat}", unit) for fn in ("normalize", "normalize_with_moves", "divisor_chain_form", "p_content_table") for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("weights.prime_support.calls_per_vector", "ratio"),
    *[(f"numth.{fn}.{stat}", unit) for fn in ("factorize", "is_prime", "p_part") for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("numth.factorize.distinct", "count"),
    ("numth.factorize.useful_frac", "ratio"),
    *[(f"cohom.{fn}.calls", "count") for fn in ("ring", "pullback_coefficients", "lens_cohomology")],
    ("cli.json_dumps.calls", "count"),
    ("cli.json_dumps.s", "s"),
    ("cli.json_dumps.bytes", "bytes"),
    ("cli.build_parser.calls", "count"),
    ("cli.build_parser.s", "s"),
    ("cli.main.self_s", "s"),
    ("classify.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
CLASSIFY_FUNCTIONS = ("census", "homeo_canonical_form", "homotopy_canonical_form", "homeomorphic", "homotopy_equivalent")


@dataclass
class Proc:
    wall_s: float  # spawn to EOF on stdout
    rc: int
    out: bytes
    err: bytes
    maxrss_mb: float  # largest resident set of the process tree

    def trace(self) -> dict:
        lines = self.err.decode(errors="replace").splitlines()
        if not lines or not lines[-1].startswith(TRACE_PREFIX):
            raise RuntimeError(f"traced child printed no trace (exit {self.rc})")
        return json.loads(lines[-1][len(TRACE_PREFIX) :])


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # for the report
    extra: dict[str, float] = field(default_factory=dict)  # report-only layer numbers
    meta: dict = field(default_factory=dict)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


class Runner:
    """Spawns interpreters on the checkout's ``src`` tree and measures them."""

    def __init__(self, root: str):
        self.root = root
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv: list[str]) -> Proc:
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=self.root,
        ) as proc:
            watchdog = threading.Timer(TIMEOUT_S, proc.kill)
            watchdog.start()
            err: list[bytes] = []
            drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            drain.start()
            out = proc.stdout.read()
            wall = time.perf_counter() - start
            drain.join()
            _, status, usage = os.wait4(proc.pid, 0)
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, proc.returncode, out, err[0], usage.ru_maxrss / 1024)

    def setup_s(self) -> list[float]:
        """Fresh-interpreter ``import wproj.cli`` times."""
        walls = []
        for _ in range(SETUP_REPEATS):
            proc = self.spawn(["-c", "import wproj.cli"])
            if proc.rc != 0:
                raise RuntimeError(f"import wproj.cli failed: {proc.err.decode(errors='replace')}")
            walls.append(proc.wall_s)
        return walls

    def probe(self, seed: int, box: tuple[int, int] | None) -> dict:
        argv = [CHILD, "probe", "--seed", str(seed)]
        if box:
            argv += ["--box", *map(str, box)]
        proc = self.spawn(argv)
        if proc.rc != 0:
            raise RuntimeError(f"probe failed: {proc.err.decode(errors='replace')}")
        return json.loads(proc.out)


# -- statistics -------------------------------------------------------------


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest whole percentile (at most p99) with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum is
    reported under the label "max".
    """
    n = len(samples)
    ordered = sorted(samples)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return f"p{pct}", ordered[rank - 1]
    return "max", ordered[-1]


def _layer(stats: dict, name: str, idx: int) -> float:
    return stats.get(name, [0, 0.0, 0.0])[idx]


def layer_metrics(deep: dict, top: dict, vectors: int) -> dict[str, float]:
    """Per-layer numbers from a full trace (``deep``) and a trace of the
    workload's own command (``top``, which may be the same trace)."""
    s, t = deep["stats"], top["stats"]
    calls = lambda name: _layer(s, name, 0)
    selfs = lambda name: _layer(s, name, 2)
    kcalls = calls("kernel.canonical_pair")
    ktotal = _layer(s, "kernel.canonical_pair", 1)
    out = {
        "kernel.canonical_pair.calls": kcalls,
        "kernel.canonical_pair.total_s": ktotal,
        "kernel.canonical_pair.us_per_call": 1e6 * ktotal / kcalls if kcalls else 0.0,
        "kernel.pure_calls": calls("kernel.pure"),
    }
    for fn in ("weights.normalize", "weights.normalize_with_moves", "weights.divisor_chain_form", "weights.p_content_table", "numth.factorize", "numth.is_prime", "numth.p_part"):
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.self_s"] = selfs(fn)
    out["weights.prime_support.calls_per_vector"] = calls("weights.prime_support") / vectors
    out["numth.factorize.distinct"] = deep["factorize_distinct"]
    fcalls = calls("numth.factorize")
    out["numth.factorize.useful_frac"] = deep["factorize_distinct"] / fcalls if fcalls else 0.0
    for fn in ("ring", "pullback_coefficients", "lens_cohomology"):
        out[f"cohom.{fn}.calls"] = calls(f"cohom.{fn}")
    out["cli.json_dumps.calls"] = _layer(t, "cli.json_dumps", 0)
    out["cli.json_dumps.s"] = _layer(t, "cli.json_dumps", 1)
    out["cli.json_dumps.bytes"] = top["json_bytes"]
    out["cli.build_parser.calls"] = _layer(t, "cli.build_parser", 0)
    out["cli.build_parser.s"] = _layer(t, "cli.build_parser", 1)
    out["cli.main.self_s"] = _layer(t, "cli.main", 2)
    out["classify.self_s"] = sum(selfs(f"classify.{fn}") for fn in CLASSIFY_FUNCTIONS)
    return out


def cohom_self_times(deep: dict) -> dict[str, float]:
    return {f"cohom.{fn}.self_s": _layer(deep["stats"], f"cohom.{fn}", 2) for fn in ("ring", "pullback_coefficients", "lens_cohomology")}


# -- census workloads -------------------------------------------------------


@dataclass(frozen=True)
class CensusSpec:
    dim: int
    max_weight: int
    members: bool
    workers: int
    # pinned from the seed commit's output
    total: int
    homeo_classes: int
    homotopy_classes: int
    sha256: str

    def argv(self, workers: int | None = None) -> list[str]:
        argv = ["census", "--dim", str(self.dim), "--max-weight", str(self.max_weight)]
        if not self.members:
            argv.append("--no-members")
        return argv + ["--workers", str(workers or self.workers)]


def check_census(spec: CensusSpec, proc: Proc, rng: random.Random) -> list[str]:
    if proc.rc != 0:
        return [f"census exited {proc.rc}: {proc.err.decode(errors='replace')[-300:]}"]
    err = "".join(line for line in proc.err.decode(errors="replace").splitlines(True) if not line.startswith(TRACE_PREFIX))
    if err:
        return [f"census wrote to stderr: {err[-300:]}"]
    problems = []
    digest = hashlib.sha256(proc.out).hexdigest()
    if digest != spec.sha256:
        problems.append(f"census stdout sha256 {digest} != pinned {spec.sha256}")
    try:
        report = json.loads(proc.out)
    except ValueError as exc:
        return problems + [f"census stdout is not JSON: {exc}"]
    for key in ("total", "homeo_classes", "homotopy_classes"):
        if report.get(key) != getattr(spec, key):
            problems.append(f"census {key} {report.get(key)} != pinned {getattr(spec, key)}")
    classes = report.get("classes", [])
    if len(classes) != spec.homeo_classes:
        problems.append(f"census lists {len(classes)} classes, expected {spec.homeo_classes}")
    if sum(c.get("size", 0) for c in classes) != spec.total:
        problems.append("census class sizes do not add up to the total")
    if len({tuple(c.get("homotopy_class", ())) for c in classes}) != spec.homotopy_classes:
        problems.append("census homotopy classes do not match the pinned count")
    for record in rng.sample(classes, min(CENSUS_SAMPLE, len(classes))):
        problems.extend(oracle.check_census_record(record, spec.members))
    return problems


def census_workload(runner: Runner, spec: CensusSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    rng = random.Random(seed)
    outcome = Outcome()
    if trace:
        return _census_traced(runner, spec, rng, outcome)
    setup = runner.setup_s()
    procs: list[Proc] = []
    start = time.perf_counter()
    while not procs or time.perf_counter() - start < seconds:
        procs.append(runner.spawn(["-m", "wproj", *spec.argv()]))
    for proc in procs:
        outcome.record(check_census(spec, proc, rng))
    walls = [p.wall_s for p in procs]
    outcome.samples = {
        "setup_s": setup,
        "vectors_per_s": [spec.total / w for w in walls],
        "queries_per_s": [len(walls) / sum(walls)],
        "peak_rss_mb": [p.maxrss_mb for p in procs],
        "query_p50_ms": [1000 * w for w in walls],
        "query_p99_ms": [1000 * w for w in walls],
    }
    outcome.metrics = _end_to_end(outcome.samples)
    return outcome


def _census_traced(runner: Runner, spec: CensusSpec, rng: random.Random, outcome: Outcome) -> Outcome:
    # The full trace runs with one worker: spans recorded in forked workers
    # are lost, so the kernel breakdown needs the census in the traced process.
    full = runner.spawn([CHILD, "census", "--trace", "full", "--", *spec.argv(workers=1)])
    light = {w: runner.spawn([CHILD, "census", "--trace", "light", "--", *spec.argv(workers=w)]) for w in sorted({1, spec.workers})}
    for proc in (full, *light.values()):
        outcome.record(check_census(spec, proc, rng))
    deep, top = full.trace(), light[spec.workers].trace()
    values = layer_metrics(deep, top, spec.total)
    values["trace.overhead_frac"] = full.wall_s / light[1].wall_s - 1
    census_s = {w: _layer(p.trace()["stats"], "classify.census", 1) for w, p in light.items()}
    outcome.extra = {
        "classify.census.s": census_s[spec.workers],
        "classify.census.self_s": _layer(deep["stats"], "classify.census", 2),
        "classify.census.w1_s": census_s[1],
        **cohom_self_times(deep),
    }
    if spec.workers > 1:
        outcome.extra[f"classify.census.w{spec.workers}_s"] = census_s[spec.workers]
        outcome.extra[f"classify.speedup_w{spec.workers}"] = census_s[1] / census_s[spec.workers]
    outcome.meta["trace_missing"] = deep["missing"]
    outcome.metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return outcome


# -- query workload ---------------------------------------------------------


def _check_query(query: querygen.Query, line: dict) -> list[str]:
    if line["rc"] != 0 or line["err"]:
        return [f"{query.argv} exited {line['rc']}: {line['err'][-300:]}"]
    try:
        report = json.loads(line["out"])
    except ValueError as exc:
        return [f"{query.argv}: stdout is not JSON: {exc}"]
    return [f"{query.argv}: {p}" for p in querygen.check(query, report)]


def _stream(runner: Runner, seed: int, outcome: Outcome, *limits: str) -> tuple[Proc, list[dict], dict, list[querygen.Query]]:
    proc = runner.spawn([CHILD, "queries", "--seed", str(seed), *limits])
    try:
        lines = [json.loads(x) for x in proc.out.splitlines()]
    except ValueError:
        lines = []
    if proc.rc != 0 or not lines or "done" not in lines[-1]:
        raise RuntimeError(f"query stream exited {proc.rc}: {proc.err.decode(errors='replace')[-300:]}")
    summary, results = lines[-1], lines[:-1]
    queries = querygen.QueryStream(seed).take(len(results))
    for query, line in zip(queries, results):
        outcome.record(_check_query(query, line))
    return proc, results, summary, queries


def _windows(results: list[dict], queries: list[querygen.Query]) -> list[tuple[int, int, float]]:
    """Cut the stream into consecutive windows of at least WINDOW_S of
    serving time: (queries, vectors, seconds) each.  A short last window is
    dropped unless it is the only one."""
    windows, count, vectors, wall = [], 0, 0, 0.0
    for query, line in zip(queries, results):
        count, vectors, wall = count + 1, vectors + query.vector_count, wall + line["s"]
        if wall >= WINDOW_S:
            windows.append((count, vectors, wall))
            count, vectors, wall = 0, 0, 0.0
    if count and not windows:
        windows.append((count, vectors, wall))
    return windows


def queries_workload(runner: Runner, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        proc, results, summary, queries = _stream(runner, seed, outcome, "--seconds", str(seconds), "--trace")
        _, _, plain, _ = _stream(runner, seed, outcome, "--count", str(len(results)))
        deep = summary["trace"]
        values = layer_metrics(deep, deep, sum(q.vector_count for q in queries))
        values["trace.overhead_frac"] = summary["wall_s"] / plain["wall_s"] - 1
        outcome.extra = cohom_self_times(deep)
        outcome.meta["trace_missing"] = deep["missing"]
        outcome.metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        return outcome
    setup = runner.setup_s()
    proc, results, summary, queries = _stream(runner, seed, outcome, "--seconds", str(seconds))
    latencies = [1000 * line["s"] for line in results]
    windows = _windows(results, queries)
    outcome.samples = {
        "setup_s": setup,
        "vectors_per_s": [vectors / wall for _, vectors, wall in windows],
        "queries_per_s": [count / wall for count, _, wall in windows],
        "peak_rss_mb": [proc.maxrss_mb],
        "query_p50_ms": latencies,
        "query_p99_ms": latencies,
    }
    outcome.metrics = _end_to_end(outcome.samples)
    return outcome


def _end_to_end(samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    values = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    values["peak_rss_mb"] = max(samples["peak_rss_mb"])
    values["query_p99_ms"] = tail(samples["query_p99_ms"])[1]
    return {name: (values[name], unit) for name, unit in END_TO_END}


# -- registry ---------------------------------------------------------------

CENSUS_D2 = CensusSpec(2, 100, True, 1, 171_700, 47_186, 27_477, "94f09b26dd1fdaf3845f22835d4a9dde11f599662ce9961640bfbb29a323d19a")
CENSUS_D3 = CensusSpec(3, 40, False, 2, 123_410, 69_534, 33_570, "066241827c7939bab4a45d034a83665a97696013b4eab1800a46786dbf8d5ff2")

WORKLOADS = {
    "census-d2-members": lambda r, seed, seconds, trace: census_workload(r, CENSUS_D2, seed, seconds, trace),
    "census-d3-counts-w2": lambda r, seed, seconds, trace: census_workload(r, CENSUS_D3, seed, seconds, trace),
    "queries-large": queries_workload,
}
PROBE_BOX = {"census-d2-members": (2, 100), "census-d3-counts-w2": (3, 40), "queries-large": None}
