"""Pure-Python canonical-form kernel.

Reference path for :mod:`wproj._backend`: arbitrary precision, no input
bounds.  The compiled kernel must agree with this one wherever it accepts
the input at all.
"""

from __future__ import annotations

from .weights import _reduced_forms, as_weights


def canonical_pair(weights: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted normalized vector, divisor-chain form) of a weight vector."""
    normal, chain = _reduced_forms(as_weights(weights))
    return tuple(sorted(normal)), chain
