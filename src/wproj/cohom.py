"""Integral cohomology of weighted projective spaces and generalized lens spaces.

The integral cohomology of a weighted projective space of complex dimension n
is free with one generator in each even degree 0, 2, ..., 2n.  Choosing the
generators produced by Kawasaki's classical computation, the whole ring is
encoded by a sequence of positive integers: the i-th generator pulls back to
``pullback[i]`` times the i-th power of the standard generator under the
coordinatewise power map from ordinary complex projective space, and products
of generators carry integer structure constants derived from that sequence.

Graded groups are plain ``dict[degree, order]`` where order 0 encodes an
infinite cyclic group and order 1 a trivial one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import InvalidInputError
from .weights import as_weights, p_content_table

__all__ = [
    "pullback_coefficients",
    "subset_lcm_sequence",
    "RingPresentation",
    "ring",
    "additive_cohomology",
    "lens_cohomology",
    "graded_ring_iso",
    "CONJUGATION",
    "CONSTANT_MAP",
    "power_map_degree",
    "endomorphism_multipliers",
]


def pullback_coefficients(weights: Iterable[int]) -> tuple[int, ...]:
    """The multiplier sequence of a weight vector, degree by degree.

    Entry i is the product, over all primes p, of the i largest sorted
    p-parts of the weights.  Entry 0 is the empty product 1, and each entry
    divides the next.  The vector is used as given; it need not be
    normalized (lens-space formulas feed augmented vectors through here).

    >>> pullback_coefficients((1, 2, 3, 4))
    (1, 12, 24, 24)
    """
    w = as_weights(weights)
    n = len(w) - 1
    out = [1] * (n + 1)
    for column in p_content_table(w).values():
        sp = column.sorted_parts
        acc = 1
        for i in range(1, n + 1):
            acc *= sp[n - i + 1]
            out[i] *= acc
    return tuple(out)


def subset_lcm_sequence(weights: Iterable[int]) -> tuple[int, ...]:
    """Independent route to the same sequence: lcm of i-subset products.

    Entry i is the lcm, over all i-element index subsets, of the product of
    the selected weights.  Exponential in the vector length; meant for
    cross-checking :func:`pullback_coefficients`, not for production use.

    >>> subset_lcm_sequence((1, 2, 3, 4))
    (1, 12, 24, 24)
    """
    w = as_weights(weights)
    n = len(w) - 1
    out = [1]
    for i in range(1, n + 1):
        out.append(math.lcm(*(math.prod(w[j] for j in sel) for sel in combinations(range(n + 1), i))))
    return tuple(out)


@dataclass(frozen=True, eq=True)
class RingPresentation:
    """The cohomology ring of a weighted projective space of dimension n.

    Generators g_0 = 1, g_1, ..., g_n sit in degrees 0, 2, ..., 2n;
    g_i * g_j = constants[(i, j)] * g_{i+j} when i + j <= n and 0 otherwise.
    ``pullback[i]`` is the multiplier of g_i under comparison with ordinary
    projective space.  Constants are stored once per unordered pair
    (i <= j); use :meth:`constant` for symmetric access.
    """

    n: int
    pullback: tuple[int, ...]
    constants: dict[tuple[int, int], int]

    def __post_init__(self):
        l = self.pullback
        if len(l) != self.n + 1 or l[0] != 1 or min(l) < 1:
            raise InvalidInputError("pullback sequence must start at 1 with n+1 positive entries")
        if any(b % a for a, b in zip(l, l[1:])):
            raise InvalidInputError("pullback sequence must be a divisor chain")
        expected = {(i, j) for i in range(self.n + 1) for j in range(i, self.n + 1 - i)}
        if set(self.constants) != expected:
            raise InvalidInputError("structure constants must cover exactly the pairs i <= j with i+j <= n")
        for (i, j), c in self.constants.items():
            if c * l[i + j] != l[i] * l[j]:
                raise InvalidInputError(f"inconsistent structure constant at ({i}, {j})")

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
    w = as_weights(weights)
    n = len(w) - 1
    l = pullback_coefficients(w)
    constants = {}
    for i in range(n + 1):
        for j in range(i, n + 1 - i):
            q, r = divmod(l[i] * l[j], l[i + j])
            if r:
                raise AssertionError(f"non-integral structure constant at ({i}, {j}) for {w}")
            constants[(i, j)] = q
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
    each even degree 2i (1 <= i <= n) a cyclic group whose order is the ratio
    of the multiplier sequences of the k-augmented and the plain vector.

    >>> lens_cohomology(2, (1, 1, 2))
    {0: 0, 2: 1, 4: 2, 5: 0}
    """
    w = as_weights(weights)
    if k < 1:
        raise InvalidInputError(f"group order k must be positive, got {k}")
    n = len(w) - 1
    plain = pullback_coefficients(w)
    augmented = pullback_coefficients(w + (k,))
    groups: dict[int, int] = {0: 0}
    for i in range(1, n + 1):
        q, r = divmod(augmented[i], plain[i])
        if r:
            raise AssertionError(f"lens order not integral at i={i} for k={k}, weights {w}")
        groups[2 * i] = q
    groups[2 * n + 1] = 0
    return groups


def graded_ring_iso(a: RingPresentation, b: RingPresentation) -> bool:
    """Decide graded ring isomorphism on the chosen degreewise generators.

    An isomorphism may only rescale each generator by a sign (the unit is
    fixed).  Structure constants are positive, so no sign choice maps one set
    of constants to another: isomorphic exactly when the constants agree.

    >>> graded_ring_iso(ring((1, 2, 3, 4)), ring((1, 1, 2, 12)))
    True
    """
    return a.n == b.n and a.constants == b.constants


# Degree markers for the two non-power self-maps with known degree.
CONJUGATION = "conjugation"
CONSTANT_MAP = "constant"


def power_map_degree(a) -> int:
    """Degree of a standard self-map on the degree-2 generator.

    The coordinatewise a-th power map has degree a; complex conjugation on a
    single coordinate (:data:`CONJUGATION`) has degree -1; constant maps
    (:data:`CONSTANT_MAP`) have degree 0.
    """
    if a == CONJUGATION:
        return -1
    if a == CONSTANT_MAP:
        return 0
    return operator.index(a)


def endomorphism_multipliers(a: Fraction | int, n: int) -> tuple[Fraction, ...]:
    """Action of a degree-a self-map on H^0, H^2, ..., H^2n: (a^0, ..., a^n).

    >>> endomorphism_multipliers(2, 3)
    (Fraction(1, 1), Fraction(2, 1), Fraction(4, 1), Fraction(8, 1))
    """
    if n < 0:
        raise InvalidInputError(f"dimension must be nonnegative, got {n}")
    a = Fraction(a)
    return tuple(a**k for k in range(n + 1))
