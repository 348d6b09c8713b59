"""Weight-vector calculus.

A weighted projective space is represented purely by its weight vector, a
tuple of positive integers.  Normalized forms (computed in closed form),
divisor-chain forms and p-content tables are all read from one table of
per-prime valuations; the rewriting moves of :func:`normalize_with_moves`
exist for reporting and as the test oracle.  Divisor counts reconstruct
normalized weights from local data.

All functions are pure; census drivers may call them from parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InconsistentDataError, InvalidInputError
from .numth import _factor_pairs, is_prime

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

# A normalization move is either ("scale", d): divide every weight by the
# common factor d, or ("reduce", p, i): divide every weight except the single
# p-coprime one (at index i) by the prime p.
Move = tuple


def as_weights(weights: Iterable[int]) -> Weights:
    """Validate and freeze a weight vector (length >= 1, entries >= 1)."""
    w = tuple(int(x) for x in weights)
    if not w:
        raise InvalidInputError("weight vector must have at least one entry")
    if any(x < 1 for x in w):
        raise InvalidInputError(f"weights must be positive integers, got {w}")
    return w


def parse_weights(text: str) -> Weights:
    """Parse a comma-separated weight vector such as "1,2,3,4".

    Leading and trailing whitespace around entries is ignored; an empty
    string is invalid.
    """
    parts = [s.strip() for s in text.split(",")]
    if parts == [""]:
        raise InvalidInputError("empty weight vector")
    try:
        values = [int(s) for s in parts]
    except ValueError:
        raise InvalidInputError(f"cannot parse weight vector from {text!r}") from None
    return as_weights(values)


def _valuations(w: Weights) -> dict[int, list[int]]:
    """Exponent column of each prime dividing some weight (primes unordered)."""
    table: dict[int, list[int]] = {}
    for i, x in enumerate(w):
        for p, e in _factor_pairs(x):
            if p not in table:
                table[p] = [0] * len(w)
            table[p][i] = e
    return table


def _reduced_forms(w: Weights) -> tuple[Weights, Weights]:
    """(normalized vector, divisor-chain form) from one valuation table.

    Normalizing lowers each prime's valuations by the second-smallest one
    (the only one, for a single weight), floored at zero; being monotone, the
    same reduction of the sorted column is that prime's divisor-chain share.
    """
    normal = [1] * len(w)
    chain = [1] * len(w)
    for p, column in _valuations(w).items():
        ranked = sorted(column)
        floor = ranked[min(1, len(w) - 1)]
        for i, (e, r) in enumerate(zip(column, ranked)):
            if e > floor:
                normal[i] *= p ** (e - floor)
            if r > floor:
                chain[i] *= p ** (r - floor)
    return tuple(normal), tuple(chain)


def is_normalized(weights: Iterable[int]) -> bool:
    """Whether every prime leaves at least two weights undivided.

    A single weight is normalized exactly when it equals 1 (the point).

    >>> is_normalized((1, 2, 3, 4)), is_normalized((1, 2, 4))
    (True, False)
    """
    return all(column.count(0) >= 2 for column in _valuations(as_weights(weights)).values())


def normalize_with_moves(weights: Iterable[int]) -> tuple[Weights, list[Move]]:
    """Normalize a weight vector, recording the rewriting steps.

    Deterministic order: divide out the gcd first, then treat primes in
    ascending order, repeatedly dividing all weights but the unique p-coprime
    one by p until at least two weights are coprime to p.  Moves at one prime
    never disturb another prime's content, so a single pass suffices.
    """
    w = list(as_weights(weights))
    moves: list[Move] = []
    g = math.gcd(*w)
    if g > 1:
        w = [x // g for x in w]
        moves.append(("scale", g))
    for p in sorted(_valuations(tuple(w))):
        while len(coprime := [i for i, x in enumerate(w) if x % p]) == 1:
            keep = coprime[0]
            w = [x if i == keep else x // p for i, x in enumerate(w)]
            moves.append(("reduce", p, keep))
    return tuple(w), moves


def normalize(weights: Iterable[int]) -> Weights:
    """Unique normalized form of a weight vector, coordinate order preserved.

    >>> normalize((2, 4, 6))
    (1, 2, 3)
    >>> normalize((6, 10, 15))
    (1, 1, 1)
    """
    return _reduced_forms(as_weights(weights))[0]


def p_content(weights: Iterable[int], p: int) -> Weights:
    """Coordinatewise largest p-power divisors.

    >>> p_content((1, 2, 3, 4), 2)
    (1, 2, 1, 4)
    """
    w = as_weights(weights)
    if not is_prime(p):
        raise InvalidInputError(f"p_content needs a prime, got {p}")
    return tuple(p**e for e in _valuations(w).get(p, [0] * len(w)))


@dataclass(frozen=True)
class PContentColumn:
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
    return _reduced_forms(as_weights(weights))[1]


def is_divisor_chain(weights: Iterable[int]) -> bool:
    """Whether each weight divides the next.

    >>> is_divisor_chain((1, 1, 2, 12)), is_divisor_chain((1, 2, 3))
    (True, False)
    """
    w = as_weights(weights)
    return all(b % a == 0 for a, b in zip(w, w[1:]))


def divisor_count(weights: Iterable[int], d: int) -> int:
    """Number of weights divisible by d."""
    w = as_weights(weights)
    if d < 1:
        raise InvalidInputError(f"divisor must be positive, got {d}")
    return sum(1 for x in w if x % d == 0)


def reconstruct_weights(counts: Mapping[int, int], max_weight: int) -> Weights:
    """Recover the weight multiset from its divisor-count function.

    ``counts[d]`` must give, for every 1 <= d <= max_weight, the number of
    weights divisible by d.  Inclusion-exclusion downward from max_weight
    yields the multiplicity of each value; the unique sorted tuple with those
    multiplicities is returned.  Contradictory counts raise
    :class:`InconsistentDataError`.
    """
    if max_weight < 1:
        raise InvalidInputError(f"max_weight must be positive, got {max_weight}")
    for d in range(1, max_weight + 1):
        if d not in counts:
            raise InvalidInputError(f"divisor-count function missing d={d}")
    multiplicity = {}
    for m in range(max_weight, 0, -1):
        g = counts[m] - sum(multiplicity[d] for d in range(2 * m, max_weight + 1, m))
        if g < 0:
            raise InconsistentDataError(f"negative multiplicity at {m}: no weight vector has these counts")
        multiplicity[m] = g
    result = tuple(m for m in range(1, max_weight + 1) for _ in range(multiplicity[m]))
    if not result:
        raise InconsistentDataError("counts describe an empty weight vector")
    # certify uniqueness: the reconstruction must reproduce every count
    for d in range(1, max_weight + 1):
        if divisor_count(result, d) != counts[d]:
            raise InconsistentDataError(f"counts are not the divisor counts of any weight vector (mismatch at d={d})")
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
