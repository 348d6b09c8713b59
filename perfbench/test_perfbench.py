"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs tiny census boxes and a few dozen queries through the same code paths
as the real workloads and checks that every metric is reported with its
unit, that the oracle accepts correct output and that it rejects wrong
output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import querygen  # noqa: E402
import workloads  # noqa: E402

# pinned from the seed commit's output, like the full-size workloads
TINY_D2 = workloads.CensusSpec(2, 12, True, 1, 364, 91, 76, "dab89055741c8a97ebac7991f73748aaaf3f6a74c44bc4c9ff90a4e6937d348c")
TINY_D3 = workloads.CensusSpec(3, 8, False, 2, 330, 181, 157, "ca134e128f0ff64311d43217828cc27803d537ab752f99ab94c6edd092d4f3fe")
QUERY_SECONDS = 0.2


@pytest.fixture(scope="module")
def runner():
    return workloads.Runner(ROOT)


def units(outcome: workloads.Outcome) -> dict[str, str]:
    return {name: unit for name, (_, unit) in outcome.metrics.items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("spec", [TINY_D2, TINY_D3], ids=["d2-members", "d3-counts-w2"])
def test_census_reports_every_metric(runner, spec, trace):
    outcome = workloads.census_workload(runner, spec, seed=1, seconds=0, trace=trace)
    assert outcome.failed == 0 and outcome.attempted >= 1, outcome.problems
    assert units(outcome) == dict(workloads.PER_LAYER if trace else workloads.END_TO_END)
    if trace:
        assert outcome.metrics["kernel.canonical_pair.calls"][0] == spec.total
        assert "classify.census.w1_s" in outcome.extra
        assert ("classify.speedup_w2" in outcome.extra) == (spec.workers == 2)


@pytest.mark.parametrize("trace", [False, True])
def test_queries_report_every_metric(runner, trace):
    outcome = workloads.queries_workload(runner, seed=3, seconds=QUERY_SECONDS, trace=trace)
    assert outcome.failed == 0 and outcome.attempted >= 10, outcome.problems
    assert units(outcome) == dict(workloads.PER_LAYER if trace else workloads.END_TO_END)


def test_corrupted_digest_counts_as_failure(runner):
    spec = dataclasses.replace(TINY_D2, sha256="0" * 64)
    outcome = workloads.census_workload(runner, spec, seed=1, seconds=0, trace=False)
    assert outcome.attempted >= 1 and outcome.failed == outcome.attempted
    assert any("sha256" in p for p in outcome.problems)


def test_oracle_rejects_a_wrong_verdict():
    query = next(q for q in querygen.QueryStream(5) if q.kind == "compare")
    left, right = query.vectors
    report = {
        "command": "compare",
        "left": [str(oracle.value(f)) for f in left],
        "right": [str(oracle.value(f)) for f in right],
        "homeomorphic": sorted(oracle.normalized(left)) == sorted(oracle.normalized(right)),
        "homotopy_equivalent": oracle.divisor_chain(left) == oracle.divisor_chain(right),
    }
    assert querygen.check(query, report) == []
    report["homotopy_equivalent"] = not report["homotopy_equivalent"]
    assert querygen.check(query, report)


def test_oracle_on_paper_examples():
    fs = [oracle.trial_factor(x) for x in (1, 2, 3, 4)]
    assert oracle.normalized([oracle.trial_factor(x) for x in (6, 10, 15)]) == [1, 1, 1]
    assert oracle.divisor_chain(fs) == [1, 1, 2, 12]
    assert oracle.subset_lcms([1, 2, 3, 4]) == [1, 12, 24, 24]
    assert [p for p in range(2, 10_000) if oracle.is_prime(p)] == [p for p in range(2, 10_000) if oracle.trial_factor(p) == {p: 1}]


def test_query_entries_stay_in_range():
    for query in querygen.QueryStream(7).take(200):
        for fs in query.vectors:
            assert 2 <= len(fs) <= 8
            assert all(oracle.value(f) < querygen.ENTRY_LIMIT for f in fs)
            assert all(oracle.is_prime(p) for f in fs for p in f)


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
