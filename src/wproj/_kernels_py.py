"""The canonical-form kernel behind :mod:`wproj.classify`.

Arbitrary precision; its only input bounds are the factoring bound of
:mod:`wproj.numth` and the valuation-table bound of :mod:`wproj.weights`.
"""

from __future__ import annotations

from .weights import _reduced_forms, as_weights


def canonical_pair(weights: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted normalized vector, divisor-chain form) of a weight vector."""
    normal, chain = _reduced_forms(as_weights(weights))
    return tuple(sorted(normal)), chain
