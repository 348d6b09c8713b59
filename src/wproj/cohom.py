"""Integral cohomology of weighted projective spaces and generalized lens spaces.

The integral cohomology of a weighted projective space of complex dimension n
is free with one generator in each even degree 0, 2, ..., 2n.  Choosing the
generators produced by Kawasaki's classical computation, the whole ring is
encoded by a sequence of positive integers: the i-th generator pulls back to
``pullback[i]`` times the i-th power of the standard generator under the
coordinatewise power map from ordinary complex projective space, and products
of generators carry integer structure constants derived from that sequence.
The sequence is read off a divisor chain: entry i is the product of the
chain's i largest entries, a running product over the chain reversed.

Graded groups are plain ``dict[degree, order]`` where order 0 encodes an
infinite cyclic group and order 1 a trivial one.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple

from .errors import InvalidInputError
from .numth import _integer
from .weights import _from_table, _integers, _valuations, as_weights

__all__ = [
    "pullback_coefficients",
    "RingPresentation",
    "ring",
    "additive_cohomology",
    "lens_cohomology",
    "graded_ring_iso",
]


def pullback_coefficients(weights: Iterable[int]) -> tuple[int, ...]:
    """The multiplier sequence of a weight vector, degree by degree.

    Entry i is the product, over all primes p, of p raised to the sum of the
    i largest p-valuations of the weights.  Entry 0 is the empty product 1,
    and each entry divides the next.  The vector is used as given; it need
    not be normalized.

    >>> pullback_coefficients((1, 2, 3, 4))
    (1, 12, 24, 24)
    """
    w = as_weights(weights)
    return _pullback(_from_table(_valuations(w), len(w)))


def _pullback(chain: tuple[int, ...]) -> tuple[int, ...]:
    """The multiplier sequence of a divisor chain: running products of its largest entries."""
    return (1, *accumulate(reversed(chain[1:]), mul))


class _RingFields(NamedTuple):
    n: int
    pullback: tuple[int, ...]
    constants: dict[tuple[int, int], int]


class RingPresentation(_RingFields):
    """The cohomology ring of a weighted projective space of dimension n.

    Generators g_0 = 1, g_1, ..., g_n sit in degrees 0, 2, ..., 2n;
    g_i * g_j = constants[(i, j)] * g_{i+j} when i + j <= n and 0 otherwise.
    ``pullback[i]`` is the multiplier of g_i under comparison with ordinary
    projective space.  Constants are stored once per unordered pair
    (i <= j); use :meth:`constant` for symmetric access.
    """

    __slots__ = ()

    def __new__(cls, n: int, pullback: tuple[int, ...], constants: dict[tuple[int, int], int]):
        n, l = _integer(n, "n", 0), _integers(pullback, "pullback")
        if len(l) != n + 1 or l[0] != 1 or min(l) < 1:
            raise InvalidInputError("pullback sequence must start at 1 with n+1 positive entries")
        if any(b % a for a, b in zip(l, l[1:])):
            raise InvalidInputError("pullback sequence must be a divisor chain")
        expected = {(i, j) for i in range(n + 1) for j in range(i, n + 1 - i)}
        if set(constants) != expected:
            raise InvalidInputError("structure constants must cover exactly the pairs i <= j with i+j <= n")
        # a float index or constant passes the key-set check (0.0 == 0); indexing and operator.index refuse it
        try:
            for (i, j), c in constants.items():
                if operator.index(c) * l[i + j] != l[i] * l[j]:
                    raise InvalidInputError(f"inconsistent structure constant at ({i}, {j})")
        except TypeError:
            raise InvalidInputError(f"constants must be integers at integer index pairs, got {(i, j)!r}: {c!r}") from None
        return super().__new__(cls, n, l, constants)

    @classmethod
    def _make(cls, iterable):  # behind _replace too, so neither skips the checks
        return cls(*iterable)

    def constant(self, i: int, j: int) -> int:
        """Structure constant of g_i * g_j (requires i + j <= n)."""
        if i > j:
            i, j = j, i
        return self.constants[(i, j)]

    def __hash__(self):
        return hash((self.n, self.pullback))


def ring(weights: Iterable[int]) -> RingPresentation:
    """Cohomology ring presentation of the space with the given weights.

    >>> ring((1, 1, 2)).constant(1, 1)
    2
    """
    return _ring(pullback_coefficients(weights))


def _ring(l: tuple[int, ...]) -> RingPresentation:
    """The ring presentation with multiplier sequence ``l``; the presentation refuses a non-integral constant."""
    n = len(l) - 1
    constants = {(i, j): l[i] * l[j] // l[i + j] for i in range(n + 1) for j in range(i, n + 1 - i)}
    return RingPresentation(n, l, constants)


def additive_cohomology(weights: Iterable[int]) -> dict[int, int]:
    """Additive cohomology: infinite cyclic in degrees 0, 2, ..., 2n.

    Same additive structure as ordinary complex projective space.
    """
    w = as_weights(weights)
    return {2 * i: 0 for i in range(len(w))}


def lens_cohomology(k: int, weights: Iterable[int]) -> dict[int, int]:
    """Cohomology of the generalized lens space L(k; weights).

    The quotient of the odd sphere by the weighted action of the k-th roots
    of unity has infinite cyclic cohomology in degrees 0 and 2n+1, and in
    each even degree 2i (1 <= i <= n) a cyclic group of order
    ``k // gcd(k, c[n+1-i])``, c the raw divisor chain of the weights: at a
    prime p with v_p(k) = a, adjoining k raises the i-th multiplier's sum of
    the i largest valuations by max(0, a - e_i), where e_i = v_p(c[n+1-i])
    is the i-th largest valuation of the weights.  k is never factored.

    >>> lens_cohomology(2, (1, 1, 2))
    {0: 0, 2: 1, 4: 2, 5: 0}
    """
    w, k = as_weights(weights), _integer(k, "group order k", 1)
    n = len(w) - 1
    c = _from_table(_valuations(w), len(w))
    orders = {2 * i: k // gcd(k, c[n + 1 - i]) for i in range(1, n + 1)}
    return {0: 0, **orders, 2 * n + 1: 0}


def graded_ring_iso(a: RingPresentation, b: RingPresentation) -> bool:
    """Decide graded ring isomorphism on the chosen degreewise generators.

    An isomorphism may only rescale each generator by a sign (the unit is
    fixed).  Structure constants are positive, so no sign choice maps one set
    of constants to another: isomorphic exactly when the constants agree.

    >>> graded_ring_iso(ring((1, 2, 3, 4)), ring((1, 1, 2, 12)))
    True
    """
    return a.n == b.n and a.constants == b.constants

