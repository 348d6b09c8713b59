"""Local structure of a weighted projective space.

Points are grouped by the support set J of their nonzero homogeneous
coordinates.  Near such a point the space looks like a torus of rank |J| - 1
times the cone on a generalized lens space whose cyclic order is the gcd of
the weights over J; everything here depends only on the index partition, so
strata are handled combinatorially and no coordinates ever appear.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import InvalidInputError, NotNormalizedError
from .numth import _integer
from .weights import Weights, _integers, as_weights, is_divisor_chain, is_normalized

__all__ = [
    "StratumChart",
    "stratum_chart",
    "local_homology_order",
    "singular_subspace",
    "FiltrationStep",
    "CellDecomposition",
    "cell_decomposition",
]


class StratumChart(NamedTuple):
    """Local chart at a stratum: torus factor times a cone on a lens space.

    ``support`` lists the indices of nonzero coordinates (J), ``zero_set``
    the complement (I).  The chart is a rank-``torus_rank`` algebraic torus
    times the quotient cone of the ``cone_weights`` coordinates by the cyclic
    group of order ``cyclic_order`` = gcd of the weights over J.
    """

    support: tuple[int, ...]
    zero_set: tuple[int, ...]
    torus_rank: int
    cyclic_order: int
    cone_weights: tuple[int, ...]


def stratum_chart(weights: Iterable[int], support: Iterable[int]) -> StratumChart:
    """Chart of the stratum whose nonzero coordinates are ``support``.

    >>> stratum_chart((1, 2, 3, 4), (1, 3)).cyclic_order
    2
    """
    w = as_weights(weights)
    J = tuple(sorted(set(_integers(support, "support indices"))))
    if not J:
        raise InvalidInputError("support set must be nonempty")
    if J[0] < 0 or J[-1] >= len(w):
        raise InvalidInputError(f"support indices out of range for {len(w)} weights: {J}")
    I = tuple(sorted(set(range(len(w))).difference(J)))
    return StratumChart(
        support=J,
        zero_set=I,
        torus_rank=len(J) - 1,
        cyclic_order=math.gcd(*(w[i] for i in J)),
        cone_weights=tuple(w[i] for i in I),
    )


def local_homology_order(weights: Iterable[int], support: Iterable[int]) -> int:
    """Order of the top local-homology group at a point with given support.

    For normalized weights this is the chart's cyclic order, the gcd of the
    weights over the support, and the order of the top middle cohomology group
    of the lens space in the chart's cone factor.  Requires normalized input.
    """
    w = as_weights(weights)
    if not is_normalized(w):
        raise NotNormalizedError(f"local homology orders need normalized weights, got {w}")
    return stratum_chart(w, support).cyclic_order


def singular_subspace(weights: Iterable[int], d: int) -> Weights:
    """Weights of the subspace where the local-homology order is divisible by d.

    Keeps exactly the weights divisible by d, in order; the result presents a
    smaller weighted projective space, or is the empty tuple when no weight
    qualifies.  d = 1 returns the whole vector.

    >>> singular_subspace((1, 2, 3, 4), 2)
    (2, 4)
    """
    w, d = as_weights(weights), _integer(d, "divisor d", 1)
    return tuple(x for x in w if x % d == 0)


class FiltrationStep(NamedTuple):
    """A subspace in the suffix filtration and its rescaled presentation."""

    subspace: tuple[int, ...]
    rescaled: tuple[int, ...]


class CellDecomposition(NamedTuple):
    """Cell structure of a divisor-chain space: one cell per complex dimension."""

    weights: tuple[int, ...]
    cells: tuple[int, ...]
    filtration: tuple[FiltrationStep, ...]


def cell_decomposition(weights: Iterable[int]) -> CellDecomposition:
    """Decompose a divisor-chain space into cells of dimensions 0, ..., n.

    The suffix subspaces form the filtration; removing each from the next
    leaves an affine cell.  Each suffix is also recorded rescaled by its
    leading weight.  Inputs that are not divisor chains are rejected.

    >>> cell_decomposition((1, 1, 2, 12)).cells
    (0, 1, 2, 3)
    """
    w = as_weights(weights)
    if not is_divisor_chain(w):
        raise InvalidInputError(f"cell decomposition needs a divisor chain, got {w}")
    w = tuple(x // w[0] for x in w)  # leading weight 1
    n = len(w) - 1
    steps = []
    for i in range(n, -1, -1):
        suffix = w[i:]
        steps.append(FiltrationStep(suffix, tuple(x // suffix[0] for x in suffix)))
    return CellDecomposition(weights=w, cells=tuple(range(n + 1)), filtration=tuple(steps))
