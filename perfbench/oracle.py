"""Correctness oracle for the benchmark; it imports nothing from wproj.

Every check works from prime factorizations: the query generator builds its
entries from known factorizations, and census entries are small enough to
factor by trial division here.  Canonical forms use the closed form (at each
prime subtract the second-smallest valuation, floored at zero), and the
multiplier and lens orders are checked against lcms of subset products,
which stays cheap for vectors of length at most 9.

Each ``check_*`` function returns a list of problems; an empty list means
the report is correct.
"""

from __future__ import annotations

import math
from itertools import combinations

Factorization = dict  # prime -> exponent

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(m: int) -> Factorization:
    """Factorization of a small positive integer by trial division."""
    out: Factorization = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def value(f: Factorization) -> int:
    return math.prod(p**e for p, e in f.items())


def normalized_factors(fs: list[Factorization]) -> list[Factorization]:
    """Closed-form normalization of a vector given by its factorizations."""
    out: list[Factorization] = [{} for _ in fs]
    for p in sorted({p for f in fs for p in f}):
        vals = [f.get(p, 0) for f in fs]
        s = sorted(vals)[1] if len(vals) > 1 else vals[0]
        for i, v in enumerate(vals):
            if v > s:
                out[i][p] = v - s
    return out


def normalized(fs: list[Factorization]) -> list[int]:
    return [value(f) for f in normalized_factors(fs)]


def divisor_chain_factors(fs: list[Factorization]) -> list[Factorization]:
    """Divisor-chain form: sorted prime-power columns of the normalization."""
    nfs = normalized_factors(fs)
    out: list[Factorization] = [{} for _ in fs]
    for p in sorted({p for f in nfs for p in f}):
        for i, e in enumerate(sorted(f.get(p, 0) for f in nfs)):
            if e:
                out[i][p] = e
    return out


def divisor_chain(fs: list[Factorization]) -> list[int]:
    return [value(f) for f in divisor_chain_factors(fs)]


def subset_lcms(w: list[int]) -> list[int]:
    """Entry i is the lcm over i-element subsets of the product of entries."""
    n = len(w) - 1
    return [1] + [math.lcm(*(math.prod(c) for c in combinations(w, i))) for i in range(1, n + 1)]


def _strs(values) -> list[str]:
    return [str(x) for x in values]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_compare(report: dict, left: list[Factorization], right: list[Factorization]) -> list[str]:
    problems: list[str] = []
    _expect(problems, "command", report.get("command"), "compare")
    _expect(problems, "left", report.get("left"), _strs(value(f) for f in left))
    _expect(problems, "right", report.get("right"), _strs(value(f) for f in right))
    _expect(problems, "homeomorphic", report.get("homeomorphic"), sorted(normalized(left)) == sorted(normalized(right)))
    _expect(problems, "homotopy_equivalent", report.get("homotopy_equivalent"), divisor_chain(left) == divisor_chain(right))
    return problems


def check_invariants(report: dict, fs: list[Factorization]) -> list[str]:
    problems: list[str] = []
    nfs = normalized_factors(fs)
    nw = [value(f) for f in nfs]
    n = len(nw) - 1
    lcms = subset_lcms(nw)
    _expect(problems, "command", report.get("command"), "invariants")
    _expect(problems, "input", report.get("input"), _strs(value(f) for f in fs))
    _expect(problems, "normalized", report.get("normalized"), _strs(nw))
    p_content = {}
    for p in sorted({p for f in nfs for p in f}):
        parts = [p ** f.get(p, 0) for f in nfs]
        p_content[str(p)] = {"parts": _strs(parts), "sorted": _strs(sorted(parts))}
    got = report.get("p_content")
    _expect(problems, "p_content", got, p_content)
    if isinstance(got, dict):
        _expect(problems, "p_content order", list(got), list(p_content))
    chain = _strs(divisor_chain(fs))
    _expect(problems, "divisor_chain_form", report.get("divisor_chain_form"), chain)
    _expect(problems, "pullback_coefficients", report.get("pullback_coefficients"), _strs(lcms))
    constants = [
        {"i": i, "j": j, "value": str(lcms[i] * lcms[j] // lcms[i + j])}
        for i in range(n + 1)
        for j in range(i, n + 1 - i)
    ]
    _expect(problems, "structure_constants", report.get("structure_constants"), constants)
    _expect(problems, "additive_cohomology", report.get("additive_cohomology"), {str(2 * i): "0" for i in range(n + 1)})
    _expect(problems, "homeo_canonical_form", report.get("homeo_canonical_form"), _strs(sorted(nw)))
    _expect(problems, "homotopy_canonical_form", report.get("homotopy_canonical_form"), chain)
    return problems


def check_lens(report: dict, k: int, fs: list[Factorization]) -> list[str]:
    problems: list[str] = []
    w = [value(f) for f in fs]
    n = len(w) - 1
    plain = subset_lcms(w)
    augmented = subset_lcms(w + [k])
    groups = {"0": "0"}
    for i in range(1, n + 1):
        if augmented[i] % plain[i]:
            problems.append(f"oracle: lens order not integral at i={i}")
        groups[str(2 * i)] = str(augmented[i] // plain[i])
    groups[str(2 * n + 1)] = "0"
    _expect(problems, "command", report.get("command"), "lens")
    _expect(problems, "k", report.get("k"), str(k))
    _expect(problems, "weights", report.get("weights"), _strs(w))
    _expect(problems, "groups", report.get("groups"), groups)
    return problems


def check_normalize(report: dict, fs: list[Factorization]) -> list[str]:
    """Normalized form by closed form; the move log must replay to it."""
    problems: list[str] = []
    w = [value(f) for f in fs]
    nw = normalized(fs)
    _expect(problems, "command", report.get("command"), "normalize")
    _expect(problems, "input", report.get("input"), _strs(w))
    _expect(problems, "normalized", report.get("normalized"), _strs(nw))
    cur = list(w)
    for move in report.get("moves", []):
        op = move.get("op")
        if op == "scale":
            d = int(move["divisor"])
            if d < 2 or any(x % d for x in cur):
                return problems + [f"illegal scale move {move}"]
            cur = [x // d for x in cur]
        elif op == "reduce":
            p, keep = int(move["prime"]), move["fixed_index"]
            coprime = [i for i, x in enumerate(cur) if x % p]
            if not is_prime(p) or coprime != [keep]:
                return problems + [f"illegal reduce move {move} on {cur}"]
            cur = [x if i == keep else x // p for i, x in enumerate(cur)]
        else:
            return problems + [f"unknown move {move}"]
    _expect(problems, "replayed moves", cur, nw)
    return problems


def check_census_record(record: dict, members: bool) -> list[str]:
    """A census class record: canonical forms of its representative and members."""
    problems: list[str] = []
    rep = [int(x) for x in record["representative"]]
    fs = [trial_factor(x) for x in rep]
    homeo = _strs(sorted(normalized(fs)))
    chain = _strs(divisor_chain(fs))
    _expect(problems, f"homeo_class of {rep}", record.get("homeo_class"), homeo)
    _expect(problems, f"homotopy_class of {rep}", record.get("homotopy_class"), chain)
    if members:
        listed = [[int(x) for x in m] for m in record["members"]]
        _expect(problems, f"size of class {homeo}", record.get("size"), len(listed))
        _expect(problems, f"representative of class {homeo}", rep, min(listed))
        for m in listed[:: max(1, len(listed) // 4)]:
            mfs = [trial_factor(x) for x in m]
            _expect(problems, f"homeo_class of member {m}", _strs(sorted(normalized(mfs))), homeo)
    return problems
