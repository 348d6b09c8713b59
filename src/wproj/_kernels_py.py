"""The canonical-form kernel behind the census and ``wproj compare``.

Arbitrary precision; its only input bounds are the factoring bound of
:mod:`wproj.numth` and the valuation-table bound of :mod:`wproj.weights`.
"""

from __future__ import annotations

from typing import Iterable

from .weights import Factors, _forms, _valuations, as_weights


def canonical_pair(weights: Iterable[int], factors: Factors | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted normalized vector, divisor-chain form) of a weight vector, validated here; ``factors`` as in ``_valuations``."""
    w = as_weights(weights)
    normal, chain = _forms(w, _valuations(w, factors))
    return tuple(sorted(normal)), chain
