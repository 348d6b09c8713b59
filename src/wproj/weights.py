"""Weight-vector calculus.

A weighted projective space is represented purely by its weight vector, a
tuple of positive integers.  :func:`normalize` is read off the leave-one-out
gcds gcd(w_j : j != i) alone, and the move log of :func:`normalize_with_moves`
factors only those gcds; every other invariant is read from one table of
per-prime valuations.  ``_from_table`` reads the table's raw divisor chain,
whose entry i multiplies in each prime to its i-th smallest valuation;
multiplier sequences are built from that chain, and ``_forms`` derives both
canonical forms from it.  Only the p-content table reads a valuation column
by its prime.  Divisor counts reconstruct normalized weights from local data.
Each table factors its entries afresh: no factorization outlives its call,
except the census's one dict of its box, which lives as long as the census.

All functions are pure; census drivers may call them from parallel workers.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple

from .errors import InconsistentDataError, InvalidInputError, ResourceLimitError
from .numth import _integer, _p_power, _scan, as_prime_set

__all__ = [
    "as_weights",
    "parse_weights",
    "is_normalized",
    "normalize",
    "normalize_with_moves",
    "p_content",
    "PContentColumn",
    "p_content_table",
    "divisor_chain_form",
    "is_divisor_chain",
    "divisor_count",
    "reconstruct_weights",
    "p_coprime_parts",
]

Weights = tuple[int, ...]
# entry -> its (prime, exponent) pairs, ascending
Factors = dict[int, tuple[tuple[int, int], ...]]

# the valuation table holds one column of len(w) exponents per distinct prime;
# 1,000 weights with 1,000 distinct primes fit
MAX_VALUATION_CELLS = 10**6

# A normalization move is either ("scale", d): divide every weight by the
# common factor d, or ("reduce", p, i): divide every weight except the single
# p-coprime one (at index i) by the prime p.
Move = tuple


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as ints by ``operator.index``: floats, strings and fractions are refused, not truncated."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((x for x in values if not hasattr(type(x), "__index__")), values)
        raise InvalidInputError(f"{what} must be integers, got {bad!r}") from None


def as_weights(weights: Iterable[int]) -> Weights:
    """Validate and freeze a weight vector (length >= 1, integer entries >= 1)."""
    w = _integers(weights, "weights")
    if not w:
        raise InvalidInputError("weight vector must have at least one entry")
    if any(x < 1 for x in w):
        raise InvalidInputError(f"weights must be positive integers, got {w}")
    return w


def _parse_ints(text: str, what: str) -> list[int]:
    """Parse comma-separated integers; ``what`` names the value in error messages."""
    if not text.strip():
        raise InvalidInputError(f"empty {what}")
    if text.isascii() and "_" not in text:  # int() alone also takes "1_0" and other scripts' digits
        try:
            return [int(s) for s in text.split(",")]
        except ValueError:
            pass
    raise InvalidInputError(f"cannot parse {what} from {text!r}")


def parse_weights(text: str) -> Weights:
    """Parse a comma-separated weight vector such as "1,2,3,4".

    Leading and trailing whitespace around entries is ignored; an empty
    string is invalid.
    """
    return as_weights(_parse_ints(text, "weight vector"))


def _valuations(w: Weights, factors: Factors | None = None) -> dict[int, list[int]]:
    """Exponent column of each prime dividing some weight (primes unordered).

    An entry missing from ``factors`` (a fresh dict by default) is factored
    and added, so each distinct entry is factored once per dict.  Entries are
    taken in order, and the table is refused with :class:`ResourceLimitError`
    before it would pass ``MAX_VALUATION_CELLS`` cells.
    """
    if factors is None:
        factors = {}
    table: dict[int, list[int]] = {}
    max_primes = MAX_VALUATION_CELLS // len(w)
    for i, x in enumerate(w):
        if x not in factors:
            factors[x] = tuple(_scan(x))
        for p, e in factors[x]:
            if p not in table:
                if len(table) == max_primes:
                    cells = (max_primes + 1) * len(w)
                    raise ResourceLimitError(
                        f"{len(w)} weights with more than {max_primes} distinct primes need at least "
                        f"{cells} valuation cells but the limit is {MAX_VALUATION_CELLS}",
                        required=cells,
                        limit=MAX_VALUATION_CELLS,
                    )
                table[p] = [0] * len(w)
            table[p][i] = e
    return table


def _from_table(table: Mapping[int, list[int]], length: int) -> Weights:
    """Raw divisor chain of a valuation table of ``length`` weights.

    Entry i multiplies in p to the i-th smallest of their exponents at p.
    """
    out = [1] * length
    for p, column in table.items():
        for i, e in enumerate(sorted(column)):
            if e:
                out[i] *= p**e
    return tuple(out)


def _forms(w: Weights, table: Mapping[int, list[int]]) -> tuple[Weights, Weights]:
    """(normalized vector, divisor-chain form) of ``w``, read off its raw divisor chain.

    The raw chain's second entry is :func:`normalize`'s g, and the later
    chain entries divided by g form the divisor-chain form.  A single weight
    has g = w_0, so both forms are ``(1,)``.
    """
    c = _from_table(table, len(w))
    g = c[min(1, len(w) - 1)]
    return tuple(x // math.gcd(x, g) for x in w), (1, *(x // g for x in c[1:]))


def _leave_one_out_gcds(w: Weights) -> list[int]:
    """gcd(w_j : j != i) for each i, read off prefix and suffix gcds; a single weight gives [0]."""
    suffix = [*accumulate(reversed(w), math.gcd)][::-1] + [0]  # suffix[i] = gcd(w[i:])
    return [*map(math.gcd, [0, *accumulate(w, math.gcd)], suffix[1:])]  # gcd(w[:i]) with suffix[i + 1]


def is_normalized(weights: Iterable[int]) -> bool:
    """Whether normalizing leaves the vector unchanged; a single weight is normalized exactly when it is 1.

    >>> is_normalized((1, 2, 3, 4)), is_normalized((1, 2, 4))
    (True, False)
    """
    w = as_weights(weights)
    return normalize(w) == w


def normalize_with_moves(weights: Iterable[int]) -> tuple[Weights, list[Move]]:
    """Normalize a weight vector, recording the rewriting steps.

    Deterministic order: divide out the gcd first, then treat primes in
    ascending order, repeatedly dividing all weights but the unique p-coprime
    one by p until at least two weights are coprime to p.  With the gcd gone,
    p divides the leave-one-out gcd h_i exactly when it divides every weight
    but w_i, so the h_i are pairwise coprime and v_p(h_i) counts the moves
    at p fixing index i.  Only the h_i above 1 are factored.
    """
    w = as_weights(weights)
    moves: list[Move] = []
    g = math.gcd(*w)  # divided out unfactored
    if g > 1:
        w = tuple(x // g for x in w)
        moves.append(("scale", g))
    steps = sorted((p, i, e) for i, h in enumerate(_leave_one_out_gcds(w)) if h > 1 for p, e in _scan(h))
    moves += [("reduce", p, i) for p, i, e in steps for _ in range(e)]
    return normalize(w), moves


def normalize(weights: Iterable[int]) -> Weights:
    """Unique normalized form of a weight vector, coordinate order preserved.

    Each weight is divided by g, every prime to its second-smallest
    valuation.  g is the lcm of the leave-one-out gcds h_i = gcd(w_j : j != i)
    (at p, h_i has the smallest valuation, or the second-smallest when w_i
    alone has the smallest), so no weight is factored.  A single weight
    leaves g = 0 and normalizes to (1,).

    >>> normalize((2, 4, 6))
    (1, 2, 3)
    >>> normalize((6, 10, 15))
    (1, 1, 1)
    """
    w = as_weights(weights)
    g = math.lcm(*_leave_one_out_gcds(w))
    return tuple(x // math.gcd(x, g) for x in w)


def p_content(weights: Iterable[int], p: int) -> Weights:
    """Coordinatewise largest p-power divisors.

    >>> p_content((1, 2, 3, 4), 2)
    (1, 2, 1, 4)
    """
    w, [p] = as_weights(weights), as_prime_set([p])
    return tuple(_p_power(x, p) for x in w)


class PContentColumn(NamedTuple):
    """The p-parts of a weight vector at one prime, unsorted and sorted."""

    prime: int
    parts: tuple[int, ...]
    sorted_parts: tuple[int, ...]


def p_content_table(weights: Iterable[int]) -> dict[int, PContentColumn]:
    """One column per prime dividing some weight; ascending prime order.

    Primes dividing no weight are omitted (all-ones columns carry nothing).
    """
    columns = sorted(_valuations(as_weights(weights)).items())
    parts = {p: tuple(p**e for e in column) for p, column in columns}
    return {p: PContentColumn(p, c, tuple(sorted(c))) for p, c in parts.items()}


def divisor_chain_form(weights: Iterable[int]) -> Weights:
    """Coordinatewise product of the sorted p-contents of the normalization.

    The result is non-decreasing, each entry divides the next, it is itself
    normalized, and the operation is idempotent.  Two weight vectors present
    homotopy-equivalent spaces exactly when their divisor-chain forms agree.

    >>> divisor_chain_form((1, 2, 3, 4))
    (1, 1, 2, 12)
    """
    w = as_weights(weights)
    return _forms(w, _valuations(w))[1]


def is_divisor_chain(weights: Iterable[int]) -> bool:
    """Whether each weight divides the next.

    >>> is_divisor_chain((1, 1, 2, 12)), is_divisor_chain((1, 2, 3))
    (True, False)
    """
    w = as_weights(weights)
    return all(b % a == 0 for a, b in zip(w, w[1:]))


def divisor_count(weights: Iterable[int], d: int) -> int:
    """Number of weights divisible by d."""
    w, d = as_weights(weights), _integer(d, "divisor d", 1)
    return sum(1 for x in w if x % d == 0)


def reconstruct_weights(counts: Mapping[int, int], max_weight: int) -> Weights:
    """Recover the weight multiset from its divisor-count function.

    ``counts[d]`` must give, for every 1 <= d <= max_weight, the number of
    weights divisible by d.  Inclusion-exclusion downward from max_weight
    yields the multiplicity of each value, in O(max_weight * log max_weight)
    steps; the unique sorted tuple with those multiplicities is returned.
    Non-negative multiplicities reproduce every count by construction, so
    only a negative one, or none at all, raises :class:`InconsistentDataError`.
    ``max_weight`` and every count are converted by ``operator.index``: a
    float or a string raises :class:`InvalidInputError`.
    """
    max_weight = _integer(max_weight, "max_weight", 1)
    for d in range(1, max_weight + 1):
        if d not in counts:
            raise InvalidInputError(f"divisor-count function missing d={d}")
    multiplicity = {}
    for m in range(max_weight, 0, -1):
        g = _integer(counts[m], f"counts[{m}]") - sum(multiplicity[d] for d in range(2 * m, max_weight + 1, m))
        if g < 0:
            raise InconsistentDataError(f"negative multiplicity at {m}: no weight vector has these counts")
        multiplicity[m] = g
    result = tuple(m for m in range(1, max_weight + 1) for _ in range(multiplicity[m]))
    if not result:
        raise InconsistentDataError("counts describe an empty weight vector")
    return result


def p_coprime_parts(weights: Iterable[int], p: int) -> Weights:
    """Coordinatewise quotient of each weight by its p-part.

    Every entry of the result is coprime to p; these are the exponents of the
    coordinatewise power map comparing a space with its p-content model.

    >>> p_coprime_parts((1, 2, 3, 4), 2)
    (1, 1, 3, 1)
    """
    w = as_weights(weights)
    return tuple(x // q for x, q in zip(w, p_content(w, p)))
