import contextlib
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wproj
from wproj import _kernels_py, classify, cli, cohom, numth, weights
from wproj.cli import main

from helpers import box, first_primes, golden_digest, golden_mismatches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestNormalize:
    def test_example(self, capsys):
        report = run_json(capsys, "normalize", "6,10,15")
        assert report["schema_version"] == 1
        assert report["normalized"] == ["1", "1", "1"]

    def test_moves_listed(self, capsys):
        report = run_json(capsys, "normalize", "2,4,6")
        assert report["moves"][0] == {"op": "scale", "divisor": "2"}

    def test_bad_input_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "1,x")
        assert code == 2 and out == "" and "invalid input" in err


class TestCompare:
    def test_witness_pair(self, capsys):
        report = run_json(capsys, "compare", "1,2,3,4", "1,1,2,12")
        assert report["homeomorphic"] is False
        assert report["homotopy_equivalent"] is True

    def test_homeomorphic_pair(self, capsys):
        report = run_json(capsys, "compare", "2,4,6", "1,2,3")
        assert report["homeomorphic"] is True
        assert report["homotopy_equivalent"] is True


class TestInvariants:
    def test_projective_plane(self, capsys):
        report = run_json(capsys, "invariants", "1,1,1")
        assert report["pullback_coefficients"] == ["1", "1", "1"]
        assert all(entry["value"] == "1" for entry in report["structure_constants"])
        assert report["divisor_chain_form"] == ["1", "1", "1"]

    def test_cross_field_consistency(self, capsys):
        report = run_json(capsys, "invariants", "8,12,18,30")
        normalized = [int(x) for x in report["normalized"]]
        star = [int(x) for x in report["divisor_chain_form"]]
        l = [int(x) for x in report["pullback_coefficients"]]
        constants = {(e["i"], e["j"]): int(e["value"]) for e in report["structure_constants"]}
        # star entries' p-parts reproduce the sorted p-content columns
        for p_text, column in report["p_content"].items():
            p = int(p_text)
            sorted_col = [int(x) for x in column["sorted"]]
            star_parts = []
            for x in star:
                q = 1
                while x % p == 0:
                    x //= p
                    q *= p
                star_parts.append(q)
            assert star_parts == sorted_col
            assert sorted([int(x) for x in column["parts"]]) == sorted_col
        # multiplier sequence against the structure constants
        for (i, j), c in constants.items():
            assert c * l[i + j] == l[i] * l[j]
        assert l[1] == math.lcm(*normalized)
        # canonical forms agree with the fields they summarize
        assert report["homeo_canonical_form"] == sorted(report["normalized"], key=int)
        assert [int(x) for x in report["homotopy_canonical_form"]] == star
        degrees = sorted(int(d) for d in report["additive_cohomology"])
        assert degrees == [2 * i for i in range(len(normalized))]

    def test_integer_print_limit(self, capsys):
        # 452 and 430 digits; their product, the top pullback coefficient, has 882
        argv = ["invariants", f"{2**1500},{3**900},1"]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, "") and "more than 640 decimal digits" in err
            sys.set_int_max_str_digits(0)
            assert run_cli(capsys, *argv)[0] == 0
        finally:
            sys.set_int_max_str_digits(limit)

    def test_canonical_forms_match_classify(self, capsys):
        rng = random.Random(12)
        for w in box(3, 12):
            w = rng.sample(w, len(w))
            report = run_json(capsys, "invariants", ",".join(map(str, w)))
            assert report["homeo_canonical_form"] == [str(x) for x in classify.homeo_canonical_form(w)]
            assert report["homotopy_canonical_form"] == [str(x) for x in classify.homotopy_canonical_form(w)]


class TestLens:
    def test_example(self, capsys):
        report = run_json(capsys, "lens", "2", "1,1,2")
        assert report["groups"] == {"0": "0", "2": "1", "4": "2", "5": "0"}

    def test_order_in_ascii_digits_only(self, capsys):
        # "1_0" used to be read as 10
        with pytest.raises(SystemExit) as info:
            main(["lens", "1_0", "1,2"])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument k: invalid int value: '1_0'\n")

    def test_zero_order_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "lens", "0", "1,1")
        assert code == 2 and "invalid input" in err


class TestStratum:
    def test_example(self, capsys):
        report = run_json(capsys, "stratum", "1,2,3,4", "--support", "1,3")
        assert report["torus_rank"] == 1
        assert report["cyclic_order"] == "2"
        assert report["cone_weights"] == ["1", "3"]
        assert report["local_homology_order"] == "2"

    def test_unnormalized_input_has_no_order(self, capsys):
        report = run_json(capsys, "stratum", "2,4,6", "--support", "0,1")
        assert report["normalized"] is False
        assert report["local_homology_order"] is None
        assert report["cyclic_order"] == "2"

    def test_bad_support_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "stratum", "1,2,3", "--support", "7")
        assert code == 2

    def test_zero_set_linear_in_weights(self, capsys):
        # each argument stays below Linux's 128 KB limit on one argv string; the zero
        # set was built by a membership test on the support tuple, 10 s for this argv
        argv = ["stratum", ",".join(["1"] * 60_000), "--support", ",".join(map(str, range(0, 60_000, 3)))]
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, len(out)) == (0, 1_549_121)
        assert elapsed < 1.0


class TestCells:
    def test_example(self, capsys):
        report = run_json(capsys, "cells", "1,1,2,12")
        assert report["cells"] == [0, 1, 2, 3]
        assert report["filtration"][1] == {"subspace": ["2", "12"], "rescaled": ["1", "6"]}

    def test_non_chain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cells", "1,2,3")
        assert code == 2 and "divisor chain" in err
        # past the entry budget a non-chain is still invalid input, not a resource refusal
        code, _, err = run_cli(capsys, "cells", ",".join(["1"] * 400 + ["3", "2"]))
        assert code == 2 and "divisor chain" in err

    def test_entry_budget(self, capsys):
        # n weights list n(n+1) filtration weights: 315 * 316 <= 10**5 < 316 * 317
        report = run_json(capsys, "cells", ",".join(["1"] * 315))
        assert sum(len(s["subspace"]) + len(s["rescaled"]) for s in report["filtration"]) == 315 * 316
        code, out, err = run_cli(capsys, "cells", ",".join(["1"] * 316))
        assert code == 3 and out == ""
        assert "316 weights need 100172 filtration entries but the limit is 100000" in err


class TestCensus:
    def test_small_census(self, capsys):
        report = run_json(capsys, "census", "--dim", "1", "--max-weight", "3")
        assert report["total"] == 6
        assert report["homeo_classes"] == 1
        assert report["classes"][0]["members"] == [
            ["1", "1"], ["1", "2"], ["1", "3"], ["2", "2"], ["2", "3"], ["3", "3"],
        ]

    def test_no_members(self, capsys):
        report = run_json(capsys, "census", "--dim", "1", "--max-weight", "3", "--no-members")
        assert "members" not in report["classes"][0]
        assert report["classes"][0]["size"] == 6

    def test_table_mode(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--dim", "1", "--max-weight", "3", "--table")
        assert code == 0
        assert "homotopy class" in out.splitlines()[0]
        assert out.strip().endswith("homotopy classes 1")

    def test_limit_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "census", "--dim", "3", "--max-weight", "500")
        assert code == 3 and "resource limit" in err

    def test_limit_flag(self, capsys):
        code, *_ = run_cli(capsys, "census", "--dim", "1", "--max-weight", "4", "--limit", "5")
        assert code == 3

    def test_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WPROJ_CENSUS_LIMIT", "5")
        code, *_ = run_cli(capsys, "census", "--dim", "1", "--max-weight", "4")
        assert code == 3
        monkeypatch.setenv("WPROJ_CENSUS_LIMIT", "1000")
        code, *_ = run_cli(capsys, "census", "--dim", "1", "--max-weight", "4")
        assert code == 0

    def test_limit_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("WPROJ_CENSUS_LIMIT", "abc")
        code, out, err = run_cli(capsys, "census", "--dim", "1", "--max-weight", "3")
        assert code == 2 and out == ""
        assert err == "wproj: invalid input: WPROJ_CENSUS_LIMIT must be an integer, got 'abc'\n"


def old_census_layout(report, members):
    """The census report as the dict tree that ``json.dumps(indent=2)`` used
    to print; the oracle for the streaming writer."""
    classes = []
    for record in report.records:
        entry = {
            "representative": [str(x) for x in record.representative],
            "homeo_class": [str(x) for x in record.homeo_class],
            "homotopy_class": [str(x) for x in record.homotopy_class],
            "size": len(record.members),
        }
        if members:
            entry["members"] = [[str(x) for x in m] for m in record.members]
        classes.append(entry)
    return {
        "schema_version": 1,
        "command": "census",
        "dimension": report.dimension,
        "max_weight": report.max_weight,
        "total": report.total,
        "homeo_classes": report.homeo_classes,
        "homotopy_classes": report.homotopy_classes,
        "classes": classes,
    }


class TestCensusOutput:
    # stdout of the dict-tree serializer, before census reports were streamed
    GOLDEN = [
        (("--dim", "2", "--max-weight", "20"), 220_661, "cb12a9ff5b4f59eb93c811b79ffd63dcaf03930f69f189719c4f8e7dcfabca40"),
        (("--dim", "3", "--max-weight", "10", "--no-members"), 106_013, "378ec74a6f1f1827fc858f850c9ced0002bf5684402221a359f887a02835b2f3"),
        (("--dim", "0", "--max-weight", "5"), 535, "e8668141f81e64d85b3688db8bb9a5ac049dfb67557422851e7fa289d4ac2657"),
    ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, size, digest", GOLDEN)
    def test_golden_stdout(self, capsys, argv, size, digest, workers):
        code, out, err = run_cli(capsys, "census", *argv, "--workers", workers)
        assert code == 0 and err == ""
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    @pytest.mark.parametrize("members", [True, False])
    @pytest.mark.parametrize("dim, max_weight", [(0, 7), (1, 12), (2, 9), (3, 6)])
    def test_matches_indent_encoder(self, capsys, dim, max_weight, members):
        argv = ["census", "--dim", str(dim), "--max-weight", str(max_weight)]
        code, out, _ = run_cli(capsys, *argv, *([] if members else ["--no-members"]))
        assert code == 0
        expected = json.dumps(old_census_layout(classify.census(dim, max_weight), members), indent=2) + "\n"
        assert out == expected


# entries past 2**64 that trial division still factors: a smooth part times at most one prime below 2**20
entries = st.one_of(
    st.integers(1, 60),
    st.builds(
        lambda smooth, big: math.prod(smooth) * big,
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=40),
        st.sampled_from([1, 65537, 1000003]),
    ),
)
vectors = st.lists(entries, min_size=1, max_size=9)


def csv(values):
    return ",".join(map(str, values))


class TestReportLayout:
    """Every one-off report is laid out byte for byte as ``json.dumps(indent=2)`` lays out its value."""

    @staticmethod
    def check(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        return json.loads(out)

    # every check reads and clears the capture, so capsys carries nothing between examples
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    # k is never factored: drawn like an entry, to share primes with the weights, or up to 2**70
    @given(vectors, vectors, st.one_of(entries, st.integers(1, 2**70)), st.data())
    def test_every_command(self, capsys, left, right, k, data):
        self.check(capsys, "normalize", csv(left))
        self.check(capsys, "invariants", csv(left))
        self.check(capsys, "compare", csv(left), csv(right))
        self.check(capsys, "lens", str(k), csv(left))
        support = data.draw(st.sets(st.integers(0, len(left) - 1), min_size=1))
        self.check(capsys, "stratum", csv(left), "--support", csv(support))
        chain = list(accumulate(left, mul))
        self.check(capsys, "cells", csv(chain))
        primes = data.draw(st.sets(st.sampled_from([2, 3, 5, 7, 65537, 2**61 - 1]), min_size=1))
        self.check(capsys, "split", f"-{chain[-1]}/{right[0]}", "--primes", csv(primes))

    def test_empty_and_null_fields(self, capsys):
        assert self.check(capsys, "invariants", "1")["p_content"] == {}
        assert self.check(capsys, "normalize", "1,2,3")["moves"] == []
        report = self.check(capsys, "stratum", "2,4,6", "--support", "0,1,2")
        assert (report["zero_set"], report["cone_weights"], report["local_homology_order"]) == ([], [], None)
        assert self.check(capsys, "cells", "1")["filtration"] == [{"subspace": ["1"], "rescaled": ["1"]}]
        assert self.check(capsys, "split", "-4/9", "--primes", "2")["unit"] == "-1/9"
        assert self.check(capsys, "lens", "1", "1")["groups"] == {"0": "0", "1": "0"}


class TestWorkCounts:
    """Each one-off query computes each intermediate once."""

    @staticmethod
    def count(monkeypatch, owners, name):
        calls = []
        original = getattr(owners[0], name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        for owner in owners:
            monkeypatch.setattr(owner, name, counting)
        return calls

    def test_compare_computes_each_side_once(self, capsys, monkeypatch):
        calls = self.count(monkeypatch, [_kernels_py], "canonical_pair")
        run_json(capsys, "compare", "1,2,3,4", "1,1,2,12")
        assert calls == [((1, 2, 3, 4),), ((1, 1, 2, 12),)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "2,4,6,9"),
            ("lens", "6", "2,4,6,9"),
            ("normalize", "4,8,12,18"),
            ("stratum", "1,2,3,4", "--support", "1,3"),
            ("stratum", "2,4,6", "--support", "0,1"),
        ],
    )
    def test_one_valuation_table(self, capsys, monkeypatch, argv):
        tables = self.count(monkeypatch, [weights, cohom], "_valuations")
        chains = self.count(monkeypatch, [weights, cohom], "_from_table")
        run_json(capsys, *argv)
        # stratum and normalize read gcds alone and build no table
        assert len(tables) == (0 if argv[0] in ("stratum", "normalize") else 1)
        # one raw chain per form; lens reads the chain of the weights alone
        assert len(chains) == (0 if argv[0] in ("stratum", "normalize") else 1)

    def test_invariants_tables_its_normalization(self, capsys, monkeypatch):
        tables = self.count(monkeypatch, [weights, cohom], "_valuations")
        report = run_json(capsys, "invariants", "2,4,6,9")
        assert report["normalized"] == ["1", "2", "3", "9"]
        assert tables == [((1, 2, 3, 9),)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "1,2,3,4", "6,10,15"),
            ("invariants", "2,4,6,9"),
            ("lens", "6", "2,4,6,9"),
            ("normalize", "4,8,12,18"),
        ],
    )
    def test_no_factorization_outlives_its_query(self, capsys, monkeypatch, argv):
        scans = self.count(monkeypatch, [numth, weights], "_scan")
        run_json(capsys, *argv)
        first = len(scans)
        run_json(capsys, *argv)
        assert first > 0 and len(scans) == 2 * first

    def test_each_distinct_entry_scanned_once(self, capsys, monkeypatch):
        scans = self.count(monkeypatch, [numth, weights], "_scan")
        # the common factor 2 is divided out first, leaving 3, 3, 5, 3, whose
        # only leave-one-out gcd above 1 is gcd(3, 3, 3) = 3, at index 2
        run_json(capsys, "normalize", "6,6,10,6")
        assert scans == [(3,)]
        # lens factors the weights alone, never k
        scans.clear()
        run_json(capsys, "lens", "5", "2,4,6,9")
        assert scans == [(2,), (4,), (6,), (9,)]

    def test_normalize_scans_no_gcd_of_one(self, capsys, monkeypatch):
        scans = self.count(monkeypatch, [numth, weights], "_scan")
        P = 10**30 + 57  # past the trial-division bound; every leave-one-out gcd of (1, 2, P) is 1
        report = run_json(capsys, "normalize", f"1,2,{P}")
        assert (report["normalized"], report["moves"], scans) == (["1", "2", str(P)], [], [])


class TestMemory:
    def test_queries_keep_no_factorizations(self, monkeypatch):
        # a process-wide factor cache would keep every entry these calls factor
        def compare(i):
            assert main(["compare", f"{6 * i + 1},{10**6 + i}", f"{65537 * i},{i + 1}"]) == 0

        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                for i in range(1, 201):  # warm-up: the parser and the interpreter's own caches
                    compare(i)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                for i in range(201, 3201):
                    compare(i)
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert kept < 64 * 1024


class TestSplit:
    def test_example(self, capsys):
        report = run_json(capsys, "split", "6/5", "--primes", "2,3")
        assert report["unit"] == "1/5"
        assert report["supported"] == "6/1"

    def test_negative(self, capsys):
        report = run_json(capsys, "split", "-4/9", "--primes", "2")
        assert report["unit"] == "-1/9"
        assert report["supported"] == "4/1"

    def test_zero_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "split", "0", "--primes", "2")
        assert code == 2

    def test_bad_rational_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "split", "x/y", "--primes", "2")
        assert code == 2

    @pytest.mark.parametrize("text", ["1.5", "1e3", ".5", "1_000", "3/4.0", "2 / 3", "/3", "3/"])
    def test_only_sign_numerator_denominator(self, capsys, text):
        code, out, err = run_cli(capsys, "split", text, "--primes", "2")
        assert code == 2 and out == "" and "cannot parse rational" in err

    def test_prime_past_the_miller_rabin_bound(self, capsys):
        code, out, err = run_cli(capsys, "split", "1/2", "--primes", str(10**30 + 57))
        assert (code, out) == (3, "")
        assert "3317044064679887385961981" in err and "1048576" in err

    def test_surrounding_whitespace_and_sign(self, capsys):
        report = run_json(capsys, "split", " +12/7 ", "--primes", "2")
        assert report["input"] == "12/7" and report["supported"] == "4/1"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "8,12,18,30"),
            ("census", "--dim", "2", "--max-weight", "6"),
            ("census", "--dim", "2", "--max-weight", "6", "--table"),
            ("normalize", "252,294,308"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it changes no result."""

    SEQUENCE = [
        ["compare", "1,2,3,4", "1,1,2,12"],
        ["lens", "2"],  # usage error
        ["invariants", "8,12,18,30"],
        ["--help"],
        ["normalize", "1,x"],  # invalid input
        ["census", "--dim", "1", "--max-weight", "3", "--table"],
        ["compare", "--bogus", "1", "2"],  # usage error
        ["split", "-4/9", "--primes", "2"],
        ["invariants", "--help"],
        ["stratum", "1,2,3,4", "--support", "1,3"],
        ["lens", "x", "1,2"],  # usage error
        ["normalize", "6,10,15"],
    ]

    @staticmethod
    def run(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_built_once(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in self.SEQUENCE * 2:
            self.run(capsys, argv)
        assert len(calls) == 1

    def test_same_results_as_a_fresh_parser_per_call(self, capsys, monkeypatch):
        fresh = []
        for argv in self.SEQUENCE * 2:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(self.run(capsys, argv))
        monkeypatch.setattr(cli, "_parser", None)
        reused = [self.run(capsys, argv) for argv in self.SEQUENCE * 2]
        assert reused == fresh
        assert [code for code, *_ in fresh[:5]] == [0, 2, 0, 0, 2]


def test_import_leaves_multiprocessing_out():
    # only census(workers > 1) needs it, and importing it costs every process start-up
    src = os.path.dirname(os.path.dirname(wproj.__file__))
    code = "import sys, wproj.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "False\n"


def test_import_leaves_json_dataclasses_fractions_out():
    # reports are laid out without json, records are named tuples, and only rationals need fractions
    src = os.path.dirname(os.path.dirname(wproj.__file__))
    code = "import sys, wproj.cli; print([m for m in ('json', 'dataclasses', 'fractions') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"


HUGE_PRIME = "1000000000000000000000000000057"  # 10**30 + 57, far past the trial-division bound
# parseable entries whose top pullback coefficient, 2**14000 * 3**9000, has 8,510 digits
HUGE_POWERS = f"{2**14000},{3**9000},1"
# 5,000 weights with 5,000 distinct primes: a 25-million-cell valuation table
MANY_PRIMES = ",".join(map(str, first_primes(5000)))


class TestArgvFuzz:
    """Malformed and extreme invocations end in a defined exit code, never a traceback."""

    # refusals that must also come fast, before the work they refuse
    BOUNDED = [
        (["census", "--dim", "100000", "--max-weight", "100000"], {}, 3),
        (["invariants", HUGE_POWERS], {}, 3),
        (["invariants", ",".join(["1"] * 1000)], {}, 3),
        (["compare", MANY_PRIMES, "1,2"], {}, 3),
        (["split", "1e10000000", "--primes", "2"], {}, 2),
        (["cells", ",".join(["1"] * 1000)], {}, 3),
    ]

    CASES = [
        ([], {}, 2),
        (["bogus"], {}, 2),
        (["--help"], {}, 0),
        (["normalize", ""], {}, 2),
        (["normalize", " , "], {}, 2),
        (["normalize", "1,,2"], {}, 2),
        (["normalize", "0"], {}, 2),
        (["normalize", "2,-4"], {}, 2),
        (["normalize", "9" * 5000], {}, 2),
        (["normalize", f"3,{HUGE_PRIME}"], {}, 3),
        (["invariants", "0,1"], {}, 2),
        # the table is of the normalization (1, 1), which drops the prime
        (["invariants", f"2,{HUGE_PRIME}"], {}, 0),
        (["compare", "1,2", ""], {}, 2),
        (["compare", HUGE_PRIME, "1,2"], {}, 3),
        (["lens", "0", "1,2"], {}, 2),
        (["lens", "x", "1,2"], {}, 2),
        (["lens", "2", f"1,{HUGE_PRIME}"], {}, 3),
        (["stratum", "1,2,3", "--support", ""], {}, 2),
        (["stratum", "1,2,3", "--support", "-1"], {}, 2),
        # the normalized flag is decided by gcds, without factoring
        (["stratum", f"2,{HUGE_PRIME}", "--support", "0"], {}, 0),
        (["cells", "0"], {}, 2),
        (["split", "0", "--primes", "2"], {}, 2),
        (["split", "1/0", "--primes", "2"], {}, 2),
        (["split", "6/5", "--primes", "2,9"], {}, 2),
        (["split", "6/5", "--primes", ""], {}, 2),
        (["split", "6/5", "--primes", HUGE_PRIME], {}, 3),
        (["census", "--dim", "1", "--max-weight", "3", "--workers", "0"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "3", "--workers", "-1"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "1", "--workers", "1000000"], {}, 0),
        (["census", "--dim", "-1", "--max-weight", "3"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "0"], {}, 2),
        (["census", "--dim", "x", "--max-weight", "3"], {}, 2),
        (["census", "--dim", "3", "--max-weight", "500"], {}, 3),
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": "abc"}, 2),
        # 6 multisets past a budget of 5
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": "5"}, 3),
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": ""}, 0),
    ] + BOUNDED + [
        # after BOUNDED, so that earlier cases keep their ids
        (["split", "1e5000", "--primes", "2"], {}, 2),
        # the common factor is divided out unfactored
        (["normalize", HUGE_PRIME], {}, 0),
        (["normalize", f"{3 * int(HUGE_PRIME)},{5 * int(HUGE_PRIME)}"], {}, 0),
        # one valuation table of the weights alone, past the cell limit
        (["lens", "2", MANY_PRIMES], {}, 3),
        # every integer field is a sign and ASCII digits, whitespace only around it
        (["normalize", "1_000,2"], {}, 2),
        (["normalize", "\u0663,6"], {}, 2),
        (["normalize", "6,\u300010"], {}, 2),
        (["lens", "1_0", "1,2"], {}, 2),
        (["lens", "\u0663", "1,2"], {}, 2),
        (["stratum", "1,2,3", "--support", "0_1"], {}, 2),
        (["split", "1/2", "--primes", "2_3"], {}, 2),
        (["split", "\u0663/4", "--primes", "2"], {}, 2),
        (["split", "3/\u0664", "--primes", "2"], {}, 2),
        (["census", "--dim", "1_0", "--max-weight", "3"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "1_0"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "3", "--limit", "1_0"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "1", "--workers", "\u0661"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": "1_000"}, 2),
        (["census", "--dim", " 1", "--max-weight", "+3\t", "--workers", "1 "], {"WPROJ_CENSUS_LIMIT": " 9 "}, 0),
        # k is never factored
        (["lens", HUGE_PRIME, "1,2"], {}, 0),
        # a negative budget is invalid input, not an exhausted one
        (["census", "--dim", "1", "--max-weight", "3", "--limit", "-1"], {}, 2),
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": "-1"}, 2),
    ]

    @pytest.mark.parametrize("argv, env, expected", CASES)
    def test_exit_code(self, capsys, monkeypatch, argv, env, expected):
        def no_pool():
            raise AssertionError("the argv fuzz test must start no process pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.delenv("WPROJ_CENSUS_LIMIT", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, env, expected", BOUNDED)
    def test_refusal_is_fast(self, capsys, monkeypatch, argv, env, expected):
        monkeypatch.delenv("WPROJ_CENSUS_LIMIT", raising=False)
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        assert code == expected and capsys.readouterr().out == ""
        assert elapsed < 1.0


class TestGoldenReports:
    """stdout, stderr and exit code of every one-off command on a fixed argv set.

    The digest was taken with the ``json.dumps(indent=2)`` writer, before the
    one-off commands shared their intermediate results.  It was re-taken once
    ``stratum`` decided its ``normalized`` flag by gcds: the six ``stratum``
    argv holding 2**61 - 1 then answer (exit 0) instead of refusing (exit 3),
    and no other argv changed.  It was re-taken again once the move log was
    read off the leave-one-out gcds and ``invariants`` off the normalization's
    table: 16 ``normalize`` and ``invariants`` argv holding 2**61 - 1
    (indices 33, 66, 76, 81, 89, 98, 124, 152, 204, 205, 254, 277, 336, 350,
    390, 442) then answer instead of refusing, and no other argv changed.
    ``golden/reports.txt`` holds one line per argv, so a failure names the
    argv that changed; ``retake_golden.py`` rewrites it.
    """

    ENTRIES = (1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 30, 36, 64, 210, 65521, 65537, 3 * 1048573, 2**32 - 5, 3**40, 2**61 - 1)
    FIXED = [
        [],
        ["bogus"],
        ["--help"],
        ["compare", "--help"],
        ["normalize"],
        ["normalize", "1", "2"],
        ["normalize", ""],
        ["normalize", "1,,2"],
        ["normalize", "2,-4"],
        ["invariants", "0,1"],
        ["invariants", "x"],
        ["invariants", ",".join(["1"] * 700)],
        ["compare", "1,2"],
        ["compare", "1,2", ""],
        ["compare", "1,2", "--bogus"],
        ["lens", "2"],
        ["lens", "x", "1,2"],
        ["lens", "0", "1,2"],
        ["lens", "-3", "1,2"],
        ["lens", "2", "1,0"],
        ["stratum", "1,2,3"],
        ["stratum", "1,2,3", "--support", ""],
        ["stratum", "1,2,3", "--support", "-1"],
        ["stratum", "1,2,3", "--support", "0,x"],
        ["cells", "1,2,3"],
        ["cells", "0"],
        ["split", "1/2"],
        ["split", "1e5", "--primes", "2"],
        ["split", "0", "--primes", "2"],
        ["split", "1/0", "--primes", "2"],
        ["split", "6/5", "--primes", "4"],
        ["split", "6/5", "--primes", ""],
        ["split", "-4/9", "--primes", "2,3"],
    ]
    COUNT = 500
    DIGEST = "ab74d52f7c21554279aa9aa03c459c327d50ae604db6925900d81e582b9f4dd1"

    @classmethod
    def argv_set(cls):
        rng = random.Random(19730510)

        def vector(length=None):
            return ",".join(str(rng.choice(cls.ENTRIES)) for _ in range(length or rng.randrange(1, 7)))

        def chain():
            x, out = 1, []
            for _ in range(rng.randrange(1, 6)):
                x *= rng.choice((1, 1, 2, 3, 5))
                out.append(x)
            return ",".join(map(str, out))

        cases = list(cls.FIXED)
        while len(cases) < cls.COUNT:
            kind = rng.choice(("normalize", "invariants", "compare", "lens", "stratum", "cells", "split"))
            if kind == "compare":
                cases.append([kind, vector(), vector()])
            elif kind == "lens":
                cases.append([kind, str(rng.randrange(-1, 40)), vector()])
            elif kind == "stratum":
                length = rng.randrange(1, 6)
                # index ``length`` is out of range, an invalid support
                support = rng.sample(range(length + 1), rng.randrange(1, length + 1))
                cases.append([kind, vector(length), "--support", ",".join(map(str, support))])
            elif kind == "cells":
                cases.append([kind, chain() if rng.random() < 0.7 else vector()])
            elif kind == "split":
                primes = rng.sample((2, 3, 4, 5, 7, 65521), rng.randrange(1, 4))
                rational = f"{rng.randrange(-500, 500)}/{rng.randrange(0, 300)}"
                cases.append([kind, rational, "--primes", ",".join(map(str, primes))])
            else:
                cases.append([kind, vector()])
        return cases

    @classmethod
    def records(cls):
        """(argv, exit code, hashed text) of each argv, its stdout and stderr captured here."""
        records = []
        for argv in cls.argv_set():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                    usage = False
                except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
                    code, usage = exc.code, True
            out, err = out.getvalue(), err.getvalue()
            if usage:
                # argparse's wording differs between Python versions; wproj writes none of it
                out, err = out[:12], err[:12]
            records.append((argv, code, repr((argv, code, out, err)).encode()))
        return records

    def test_digest(self, monkeypatch):
        monkeypatch.delenv("WPROJ_CENSUS_LIMIT", raising=False)
        records = self.records()
        # one line per argv names each record that moved; the digest below covers every byte
        mismatches = golden_mismatches("reports.txt", records)
        assert not mismatches, "\n".join(mismatches)
        assert golden_digest(records) == self.DIGEST
