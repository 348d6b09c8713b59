"""Command-line front end.

Reports are JSON objects with a fixed key order, so identical invocations
produce byte-identical output.  Arithmetic values (weights, multipliers,
structure constants, group orders, rationals) are serialized as decimal
strings to protect consumers from 64-bit overflow; structural values
(indices, degrees-as-keys, dimensions, counts) stay JSON numbers.  The full
schema is documented in the README.

Each report is laid out by f-strings in the bytes of ``json.dumps(report,
indent=2)`` and written with one ``sys.stdout.write``: ``_array`` lays out a
flat array, and nested records are joined from one template each.  No string
needs escaping, since every one is built from integers, rationals and fixed
names.  The census report is streamed class by class by ``_write_census`` in
the same layout.

Exit codes: 0 success, 2 invalid input, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING

from . import _kernels_py, classify, cohom, strata, weights
from .errors import InvalidInputError, ResourceLimitError
from .numth import unit_split

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA_VERSION = 1

# entries a report may list: floor((n+2)**2/4) structure constants for
# invariants (about 630 weights), (n+1)(n+2) filtration entries for cells
# (315 weights)
MAX_REPORT_ENTRIES = 10**5

_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", re.ASCII)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(text: str) -> Fraction:
    from fractions import Fraction  # imported here: only split reads a rational

    # only [sign]p[/q]: Fraction also takes exponents, which makes
    # "1e10000000" a ten-million-digit integer
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInputError(f"cannot parse rational from {text!r}")


def _array(values, pad: str = "\n  ", quote: str = '"') -> str:
    """``values`` as a JSON array of decimal strings, laid out as ``json.dumps(indent=2)`` does.

    ``pad`` is the line break and indentation before the closing bracket.
    With an empty ``quote`` the entries are written as they print: numbers,
    or records already laid out.
    """
    if not values:
        return "[]"
    return f"[{pad}  {quote}" + f"{quote},{pad}  {quote}".join(map(str, values)) + f"{quote}{pad}]"


def _write(command: str, fields: str) -> None:
    """Write one report: the schema header, then ``fields``, its remaining lines."""
    sys.stdout.write(f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "command": "{command}",\n{fields}\n}}\n')


def _cmd_normalize(args) -> int:
    w = weights.parse_weights(args.weights)
    normalized, moves = weights.normalize_with_moves(w)
    pad = "\n      "
    records = [
        f'{{{pad}"op": "scale",{pad}"divisor": "{m[1]}"\n    }}'
        if m[0] == "scale"
        else f'{{{pad}"op": "reduce",{pad}"prime": "{m[1]}",{pad}"fixed_index": {m[2]}\n    }}'
        for m in moves
    ]
    _write(
        "normalize",
        f'  "input": {_array(w)},\n  "normalized": {_array(normalized)},\n  "moves": {_array(records, quote="")}',
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
    # every invariant below is read off the normalization and its one valuation table
    nw = weights.normalize(w)
    table = weights._valuations(nw)
    chain = weights._from_table(table, len(nw))  # nw is normalized: its raw chain is its divisor-chain form
    presentation = cohom._ring(cohom._pullback(chain))
    try:  # the top pullback coefficient bounds every number in the report
        pullback = _array(presentation.pullback)
    except ValueError:
        digits = sys.get_int_max_str_digits()
        raise ResourceLimitError(
            f"the top pullback coefficient has more than {digits} decimal digits, "
            "the interpreter's limit for printing an integer",
            limit=digits,
        ) from None
    p_content = {p: [p**e for e in column] for p, column in sorted(table.items())}
    pad = "\n      "
    columns = ",\n    ".join(
        f'"{p}": {{{pad}"parts": {_array(parts, pad)},{pad}"sorted": {_array(sorted(parts), pad)}\n    }}'
        for p, parts in p_content.items()
    )
    p_content_text = f"{{\n    {columns}\n  }}" if columns else "{}"
    # _ring lists the constants in (i, j) order
    constants = [f'{{{pad}"i": {i},{pad}"j": {j},{pad}"value": "{c}"\n    }}' for (i, j), c in presentation.constants.items()]
    additive = ",\n    ".join(f'"{d}": "{o}"' for d, o in cohom.additive_cohomology(nw).items())
    chain_form = _array(chain)
    _write(
        "invariants",
        f'  "input": {_array(w)},\n  "normalized": {_array(nw)},\n'
        f'  "p_content": {p_content_text},\n'
        f'  "divisor_chain_form": {chain_form},\n  "pullback_coefficients": {pullback},\n'
        f'  "structure_constants": {_array(constants, quote="")},\n  "additive_cohomology": {{\n    {additive}\n  }},\n'
        # both canonical forms are read off the normalization
        f'  "homeo_canonical_form": {_array(sorted(nw))},\n  "homotopy_canonical_form": {chain_form}',
    )
    return 0


def _cmd_compare(args) -> int:
    left = weights.parse_weights(args.left)
    right = weights.parse_weights(args.right)
    # (homeo form, homotopy form) of each side, once
    left_forms = _kernels_py.canonical_pair(left)
    right_forms = _kernels_py.canonical_pair(right)
    _write(
        "compare",
        f'  "left": {_array(left)},\n  "right": {_array(right)},\n'
        f'  "homeomorphic": {str(left_forms[0] == right_forms[0]).lower()},\n'
        f'  "homotopy_equivalent": {str(left_forms[1] == right_forms[1]).lower()}',
    )
    return 0


def _cmd_lens(args) -> int:
    w = weights.parse_weights(args.weights)
    groups = ",\n    ".join(f'"{d}": "{o}"' for d, o in cohom.lens_cohomology(args.k, w).items())
    _write("lens", f'  "k": "{args.k}",\n  "weights": {_array(w)},\n  "groups": {{\n    {groups}\n  }}')
    return 0


def _cmd_stratum(args) -> int:
    w = weights.parse_weights(args.weights)
    support = weights._parse_ints(args.support, "support set")
    chart = strata.stratum_chart(w, support)
    # on normalized weights the local-homology order is the chart's cyclic order
    normalized, order = ("true", f'"{chart.cyclic_order}"') if weights.is_normalized(w) else ("false", "null")
    _write(
        "stratum",
        f'  "weights": {_array(w)},\n  "support": {_array(chart.support, quote="")},\n'
        f'  "zero_set": {_array(chart.zero_set, quote="")},\n  "torus_rank": {chart.torus_rank},\n'
        f'  "cyclic_order": "{chart.cyclic_order}",\n  "cone_weights": {_array(chart.cone_weights)},\n'
        f'  "normalized": {normalized},\n  "local_homology_order": {order}',
    )
    return 0


def _cmd_cells(args) -> int:
    w = weights.parse_weights(args.weights)
    if weights.is_divisor_chain(w):  # a non-chain is invalid input (exit 2) at any length
        _check_report_entries(w, len(w) * (len(w) + 1), "filtration entries")
    decomposition = strata.cell_decomposition(w)
    pad = "\n      "
    steps = [
        f'{{{pad}"subspace": {_array(step.subspace, pad)},{pad}"rescaled": {_array(step.rescaled, pad)}\n    }}'
        for step in decomposition.filtration
    ]
    _write(
        "cells",
        f'  "weights": {_array(decomposition.weights)},\n  "cells": {_array(decomposition.cells, quote="")},\n'
        f'  "filtration": {_array(steps, quote="")}',
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
    """Stream the census report class by class, in the layout of every other report."""
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
            [limit] = weights._parse_ints(env, "WPROJ_CENSUS_LIMIT")
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
    primes = weights._parse_ints(args.primes, "prime set")
    u, v = unit_split(x, primes)  # validates the primes
    _write(
        "split",
        f'  "input": "{_frac(x)}",\n  "primes": {_array(sorted(set(primes)))},\n'
        f'  "unit": "{_frac(u)}",\n  "supported": "{_frac(v)}"',
    )
    return 0


def _integer_field(text: str) -> int:
    """One integer argument or option, in the grammar of a comma-separated entry."""
    try:
        [value] = weights._parse_ints(text, "integer")
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return value


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
    p.add_argument("k", type=_integer_field)
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
    p.add_argument("--dim", type=_integer_field, required=True)
    p.add_argument("--max-weight", type=_integer_field, required=True)
    p.add_argument("--limit", type=_integer_field, default=None, help="enumeration budget (default WPROJ_CENSUS_LIMIT or 10^7)")
    p.add_argument("--workers", type=_integer_field, default=1)
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
