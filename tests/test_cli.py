import hashlib
import json
import math
import random
import time

import pytest

from wproj import classify, cli
from wproj.cli import main

from helpers import box, first_primes


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
        (["invariants", f"2,{HUGE_PRIME}"], {}, 3),
        (["compare", "1,2", ""], {}, 2),
        (["compare", HUGE_PRIME, "1,2"], {}, 3),
        (["lens", "0", "1,2"], {}, 2),
        (["lens", "x", "1,2"], {}, 2),
        (["lens", "2", f"1,{HUGE_PRIME}"], {}, 3),
        (["stratum", "1,2,3", "--support", ""], {}, 2),
        (["stratum", "1,2,3", "--support", "-1"], {}, 2),
        (["stratum", f"2,{HUGE_PRIME}", "--support", "0"], {}, 3),
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
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": "-5"}, 3),
        (["census", "--dim", "1", "--max-weight", "3"], {"WPROJ_CENSUS_LIMIT": ""}, 0),
    ] + BOUNDED + [
        # after BOUNDED, so that earlier cases keep their ids
        (["split", "1e5000", "--primes", "2"], {}, 2),
        # the common factor is divided out unfactored
        (["normalize", HUGE_PRIME], {}, 0),
        (["normalize", f"{3 * int(HUGE_PRIME)},{5 * int(HUGE_PRIME)}"], {}, 0),
    ]

    @pytest.mark.parametrize("argv, env, expected", CASES)
    def test_exit_code(self, capsys, monkeypatch, argv, env, expected):
        def no_pool():
            raise AssertionError("the argv fuzz test must start no process pool")

        monkeypatch.setattr(classify, "get_context", no_pool)
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
