#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of wproj.

    python3 perfbench/run.py --workload census-d2-members --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/`` (pure Python, nothing to build).  The workloads are described
in ``perfbench/README.md``.  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  Every output is
checked; the last stdout line is the JSON result, and the exit code is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 20111108


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report_lines(outcome: workloads.Outcome, trace: bool) -> list[str]:
    lines = []
    if trace:
        for name, (value, unit) in outcome.metrics.items():
            lines.append(f"  {name:<42} {unit:<10} {_fmt(value)}")
        for name, value in outcome.extra.items():
            lines.append(f"  {name:<42} {'':<10} {_fmt(value)}  (report only)")
    else:
        for name, unit in workloads.END_TO_END:
            samples = outcome.samples[name]
            label, high = workloads.tail(samples)
            lines.append(f"  {name:<16} {unit:<10} value={_fmt(outcome.metrics[name][0])} median={_fmt(statistics.median(samples))} {label}={_fmt(high)} n={len(samples)}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"  failed_frac      ratio      {_fmt(frac)} ({outcome.failed} of {outcome.attempted})")
    lines.extend(f"  problem: {p}" for p in outcome.problems[:20])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wproj", "cli.py")):
        print(f"perfbench: no wproj sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    runner = workloads.Runner(ROOT)
    load_before = os.getloadavg()
    probe = runner.probe(args.seed, workloads.PROBE_BOX[args.workload])
    try:
        outcome = workloads.WORKLOADS[args.workload](runner, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        outcome = workloads.Outcome(attempted=1, failed=1, problems=[str(exc)])
    if probe["backend"] == "cython":
        # compiled and pure kernels must agree; one check, counted like any operation
        outcome.record([f"compiled kernel disagrees on {v}" for v in probe["mismatches"]])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "backend": probe["backend"],
        "kernel_agreement_checked": probe["checked"],
        "git_commit": git_commit(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **outcome.meta,
    }
    print(f"perfbench {args.workload} (trace {args.trace})")
    print("meta " + json.dumps(meta))
    for line in report_lines(outcome, bool(args.trace)):
        print(line)
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
