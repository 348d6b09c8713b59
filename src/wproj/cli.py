"""Command-line front end.

Reports are JSON objects with a fixed key order, so identical invocations
produce byte-identical output.  Arithmetic values (weights, multipliers,
structure constants, group orders, rationals) are serialized as decimal
strings to protect consumers from 64-bit overflow; structural values
(indices, degrees-as-keys, dimensions, counts) stay JSON numbers.  The full
schema is documented in the README.

Exit codes: 0 success, 2 invalid input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import classify, cohom, strata, weights
from .errors import InvalidInputError, ResourceLimitError
from .numth import as_prime_set, unit_split

SCHEMA_VERSION = 1

# entries a report may list: floor((n+2)**2/4) structure constants for
# invariants (about 630 weights), (n+1)(n+2) filtration entries for cells
# (315 weights)
MAX_REPORT_ENTRIES = 10**5

_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def _wstr(values) -> list[str]:
    return [str(x) for x in values]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(text: str) -> Fraction:
    # only [sign]p[/q]: Fraction also takes exponents, which makes
    # "1e10000000" a ten-million-digit integer
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInputError(f"cannot parse rational from {text!r}")


def _report(command: str, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **payload}


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _move_json(move) -> dict:
    if move[0] == "scale":
        return {"op": "scale", "divisor": str(move[1])}
    return {"op": "reduce", "prime": str(move[1]), "fixed_index": move[2]}


def _cmd_normalize(args) -> int:
    w = weights.parse_weights(args.weights)
    normalized, moves = weights.normalize_with_moves(w)
    _emit(
        _report(
            "normalize",
            {
                "input": _wstr(w),
                "normalized": _wstr(normalized),
                "moves": [_move_json(m) for m in moves],
            },
        )
    )
    return 0


def _check_report_entries(w: weights.Weights, count: int, what: str) -> None:
    """Refuse, before any work, a report that would list more than MAX_REPORT_ENTRIES."""
    if count > MAX_REPORT_ENTRIES:
        raise ResourceLimitError(
            f"{len(w)} weights need {count} {what} but the limit is {MAX_REPORT_ENTRIES}",
            required=count,
            limit=MAX_REPORT_ENTRIES,
        )


def _cmd_invariants(args) -> int:
    w = weights.parse_weights(args.weights)
    _check_report_entries(w, (len(w) + 1) ** 2 // 4, "structure constants")
    nw = weights.normalize(w)
    chain = weights.divisor_chain_form(nw)
    table = weights.p_content_table(nw)
    presentation = cohom.ring(nw)
    # the top pullback coefficient bounds every number in the report;
    # 0 digits, or an interpreter without the setting, means no limit
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and presentation.pullback[-1] >= 10**digits:
        raise ResourceLimitError(
            f"the top pullback coefficient has more than {digits} decimal digits, "
            "the interpreter's limit for printing an integer",
            limit=digits,
        )
    constants = [
        {"i": i, "j": j, "value": str(presentation.constants[i, j])}
        for (i, j) in sorted(presentation.constants)
    ]
    _emit(
        _report(
            "invariants",
            {
                "input": _wstr(w),
                "normalized": _wstr(nw),
                "p_content": {
                    str(p): {"parts": _wstr(col.parts), "sorted": _wstr(col.sorted_parts)}
                    for p, col in table.items()
                },
                "divisor_chain_form": _wstr(chain),
                "pullback_coefficients": _wstr(presentation.pullback),
                "structure_constants": constants,
                "additive_cohomology": {str(d): str(o) for d, o in cohom.additive_cohomology(nw).items()},
                # both canonical forms are read off the normalization
                "homeo_canonical_form": _wstr(sorted(nw)),
                "homotopy_canonical_form": _wstr(chain),
            },
        )
    )
    return 0


def _cmd_compare(args) -> int:
    left = weights.parse_weights(args.left)
    right = weights.parse_weights(args.right)
    _emit(
        _report(
            "compare",
            {
                "left": _wstr(left),
                "right": _wstr(right),
                "homeomorphic": classify.homeomorphic(left, right),
                "homotopy_equivalent": classify.homotopy_equivalent(left, right),
            },
        )
    )
    return 0


def _cmd_lens(args) -> int:
    w = weights.parse_weights(args.weights)
    groups = cohom.lens_cohomology(args.k, w)
    _emit(
        _report(
            "lens",
            {
                "k": str(args.k),
                "weights": _wstr(w),
                "groups": {str(d): str(o) for d, o in sorted(groups.items())},
            },
        )
    )
    return 0


def _cmd_stratum(args) -> int:
    w = weights.parse_weights(args.weights)
    support = weights._parse_ints(args.support, "support set")
    chart = strata.stratum_chart(w, support)
    normalized = weights.is_normalized(w)
    order = str(strata.local_homology_order(w, support)) if normalized else None
    _emit(
        _report(
            "stratum",
            {
                "weights": _wstr(w),
                "support": list(chart.support),
                "zero_set": list(chart.zero_set),
                "torus_rank": chart.torus_rank,
                "cyclic_order": str(chart.cyclic_order),
                "cone_weights": _wstr(chart.cone_weights),
                "normalized": normalized,
                "local_homology_order": order,
            },
        )
    )
    return 0


def _cmd_cells(args) -> int:
    w = weights.parse_weights(args.weights)
    if weights.is_divisor_chain(w):  # a non-chain is invalid input (exit 2) at any length
        _check_report_entries(w, len(w) * (len(w) + 1), "filtration entries")
    decomposition = strata.cell_decomposition(w)
    _emit(
        _report(
            "cells",
            {
                "weights": _wstr(decomposition.weights),
                "cells": list(decomposition.cells),
                "filtration": [
                    {"subspace": _wstr(step.subspace), "rescaled": _wstr(step.rescaled)}
                    for step in decomposition.filtration
                ],
            },
        )
    )
    return 0


def _census_table(report: classify.CensusReport) -> str:
    rows = [("representative", "homeo class", "homotopy class", "size")]
    for record in report.records:
        rows.append(
            (
                ",".join(map(str, record.representative)),
                ",".join(map(str, record.homeo_class)),
                ",".join(map(str, record.homotopy_class)),
                str(len(record.members)),
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    summary = (
        f"total {report.total}  homeo classes {report.homeo_classes}  "
        f"homotopy classes {report.homotopy_classes}"
    )
    return "\n".join(lines + [summary])


def _write_census(report: classify.CensusReport, members: bool) -> None:
    """Stream the census report class by class, byte-identical to ``_emit`` on the same fields."""
    vector = "[\n" + ",\n".join(['        "%d"'] * (report.dimension + 1)) + "\n      ]"
    member = "[\n" + ",\n".join(['          "%d"'] * (report.dimension + 1)) + "\n        ]"
    sys.stdout.write(
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "command": "census",\n  "dimension": {report.dimension},\n'
        f'  "max_weight": {report.max_weight},\n  "total": {report.total},\n  "homeo_classes": {report.homeo_classes},\n'
        f'  "homotopy_classes": {report.homotopy_classes},\n  "classes": ['
    )
    separator = "\n"
    for r in report.records:
        sys.stdout.write(
            f'{separator}    {{\n      "representative": {vector % r.representative},\n      "homeo_class": {vector % r.homeo_class},\n'
            f'      "homotopy_class": {vector % r.homotopy_class},\n      "size": {len(r.members)}'
        )
        if members:
            sys.stdout.write(',\n      "members": [\n        ' + ",\n        ".join(map(member.__mod__, r.members)) + "\n      ]")
        separator = "\n    },\n"
    sys.stdout.write("\n    }\n  ]\n}\n")


def _cmd_census(args) -> int:
    limit, env = args.limit, os.environ.get("WPROJ_CENSUS_LIMIT")
    if limit is None and env:
        try:
            limit = int(env)
        except ValueError:
            raise InvalidInputError(f"WPROJ_CENSUS_LIMIT must be an integer, got {env!r}") from None
    report = classify.census(args.dim, args.max_weight, limit=limit, workers=args.workers)
    if args.table:
        sys.stdout.write(_census_table(report) + "\n")
    else:
        _write_census(report, members=not args.no_members)
    return 0


def _cmd_split(args) -> int:
    x = _parse_rational(args.rational)
    primes = as_prime_set(weights._parse_ints(args.primes, "prime set"))
    u, v = unit_split(x, primes)
    _emit(
        _report(
            "split",
            {
                "input": _frac(x),
                "primes": _wstr(sorted(primes)),
                "unit": _frac(u),
                "supported": _frac(v),
            },
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wproj",
        description="Exact invariants and classification of weighted projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalized weights and the rewriting moves")
    p.add_argument("weights", help='comma-separated weights, e.g. "6,10,15"')
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("invariants", help="full invariant report for one space")
    p.add_argument("weights")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("compare", help="homeomorphism and homotopy equivalence verdicts")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("lens", help="cohomology of the generalized lens space L(k; weights)")
    p.add_argument("k", type=int)
    p.add_argument("weights")
    p.set_defaults(func=_cmd_lens)

    p = sub.add_parser("stratum", help="local chart and local-homology order at a stratum")
    p.add_argument("weights")
    p.add_argument("--support", required=True, help="0-based indices of nonzero coordinates, e.g. 1,3")
    p.set_defaults(func=_cmd_stratum)

    p = sub.add_parser("cells", help="cell decomposition of a divisor-chain space")
    p.add_argument("weights")
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("census", help="classify all weight multisets in a box")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--limit", type=int, default=None, help="enumeration budget (default WPROJ_CENSUS_LIMIT or 10^7)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--table", action="store_true", help="tabular summary instead of JSON")
    p.add_argument("--no-members", action="store_true", help="omit member lists from the JSON report")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("split", help="split a rational into a P-coprime unit and a P-supported part")
    # let negative rationals like -4/9 through positional parsing
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.add_argument("rational", help='e.g. "-4/9"')
    p.add_argument("--primes", required=True, help="comma-separated primes, e.g. 2,3")
    p.set_defaults(func=_cmd_split)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # built on the first call and reused: parsing keeps no state in the
    # parser, and every default is immutable
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"wproj: resource limit: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"wproj: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
