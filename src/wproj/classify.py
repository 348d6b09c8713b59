"""Canonical forms, equivalence decisions, and the exhaustive census.

Two weight vectors present homeomorphic spaces exactly when their sorted
normalized forms agree, and homotopy-equivalent spaces exactly when their
divisor-chain forms agree.  Both forms are permutation- and scale-invariant,
so the census enumerates weight multisets only (non-decreasing tuples).
The homeomorphism form never factors.  The census checks once that
homeomorphism refines homotopy equivalence.

Genus rigidity means membership in the same localization genus coincides
with homotopy equivalence, so no separate predicate is exposed for it.
"""

from __future__ import annotations

import os
from collections import defaultdict
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, NamedTuple

from . import _kernels_py
from .errors import ResourceLimitError
from .numth import _integer, _scan
from .weights import Factors, Weights, divisor_chain_form, normalize

__all__ = [
    "homeo_canonical_form",
    "homotopy_canonical_form",
    "homeomorphic",
    "homotopy_equivalent",
    "ClassRecord",
    "CensusReport",
    "DEFAULT_CENSUS_LIMIT",
    "census",
]

DEFAULT_CENSUS_LIMIT = 10_000_000


def homeo_canonical_form(weights: Iterable[int]) -> Weights:
    """Sorted normalized weights: complete invariant of the homeomorphism type.

    >>> homeo_canonical_form((2, 4, 6))
    (1, 2, 3)
    """
    return tuple(sorted(normalize(weights)))


def homotopy_canonical_form(weights: Iterable[int]) -> Weights:
    """Divisor-chain form of the normalization: complete homotopy invariant.

    The entries' p-parts recover every sorted p-content column, so equality
    of these forms is equality of all sorted p-contents at once.

    >>> homotopy_canonical_form((1, 2, 3))
    (1, 1, 6)
    """
    return divisor_chain_form(weights)


def homeomorphic(a: Iterable[int], b: Iterable[int]) -> bool:
    """Whether the two weight vectors present homeomorphic spaces."""
    return homeo_canonical_form(a) == homeo_canonical_form(b)


def homotopy_equivalent(a: Iterable[int], b: Iterable[int]) -> bool:
    """Whether the two weight vectors present homotopy-equivalent spaces."""
    return homotopy_canonical_form(a) == homotopy_canonical_form(b)


class ClassRecord(NamedTuple):
    """One homeomorphism class of a census: canonical forms and members."""

    representative: Weights
    homeo_class: Weights
    homotopy_class: Weights
    members: tuple[Weights, ...]


class CensusReport(NamedTuple):
    """Result of a census run over all weight multisets in a box."""

    dimension: int
    max_weight: int
    total: int
    records: tuple[ClassRecord, ...]
    homeo_classes: int
    homotopy_classes: int


@lru_cache(maxsize=1)
def _box_factors(max_weight: int) -> Factors:
    """Factorizations of 1..max_weight: each process of a census builds them on its first slice."""
    return {m: tuple(_scan(m)) for m in range(1, max_weight + 1)}


def _classify_slice(args: tuple[int, int, int]) -> dict:
    """Non-decreasing vectors with a fixed first entry, in enumeration order, keyed by both canonical forms."""
    first, dim, max_weight = args
    factors = _box_factors(max_weight)
    groups: dict[tuple[Weights, Weights], list[Weights]] = defaultdict(list)
    for tail in combinations_with_replacement(range(first, max_weight + 1), dim):
        v = (first,) + tail
        groups[_kernels_py.canonical_pair(v, factors)].append(v)
    return groups


def _multiset_count(dimension: int, max_weight: int, limit: int) -> int:
    """comb(max_weight + dimension, dimension + 1), or a smaller count above ``limit``.

    The binomial is built term by term over the smaller of its two lower
    indices; each partial binomial is at most the total, so the first one
    above ``limit`` already decides the refusal and the cost stays bounded.
    """
    k = min(dimension + 1, max_weight - 1)
    m = max_weight + dimension - k
    count = 1
    for i in range(1, k + 1):
        count = count * (m + i) // i
        if count > limit:
            break
    return count


def census(dimension: int, max_weight: int, limit: int | None = None, workers: int = 1) -> CensusReport:
    """Classify every weight multiset of length dimension+1 with entries <= max_weight.

    Vectors are grouped by their (homeomorphism form, homotopy form) pair.
    That the homeomorphism partition refines the homotopy partition is
    checked once, over the classes sorted by that pair.  Enumerations
    larger than ``limit`` (default 10**7 multisets) are refused up front with
    a :class:`ResourceLimitError`, whose ``required`` is then a lower bound
    on the count; so are enumerations of more than ``4 * limit`` entries in
    all (vectors times ``dimension + 1``).  ``workers`` > 1 splits the
    enumeration by first entry across at most
    ``min(workers, max_weight, os.cpu_count())`` processes; the merged
    report is identical either way.  Arguments are converted by
    ``operator.index``: a float, a string or a negative limit raises :class:`InvalidInputError`.
    """
    dimension, max_weight = _integer(dimension, "dimension", 0), _integer(max_weight, "max_weight", 1)
    limit = DEFAULT_CENSUS_LIMIT if limit is None else _integer(limit, "limit", 0)
    workers = _integer(workers, "workers", 1)
    total = _multiset_count(dimension, max_weight, limit)
    if total > limit:
        raise ResourceLimitError(
            f"census of dimension {dimension}, max weight {max_weight} needs "
            f"at least {total} vectors but the limit is {limit}",
            required=total,
            limit=limit,
        )
    # vectors of at most 4 entries are charged by the vector budget alone
    entries, entry_limit = total * (dimension + 1), 4 * limit
    if entries > entry_limit:
        raise ResourceLimitError(
            f"census of dimension {dimension}, max weight {max_weight} needs {total} vectors "
            f"of {dimension + 1} entries, {entries} in all, but the limit is {entry_limit} entries",
            required=entries,
            limit=entry_limit,
        )

    slices = [(first, dimension, max_weight) for first in range(1, max_weight + 1)]
    workers = min(workers, len(slices), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import get_context  # imported here: it slows every start-up

        # one slice per task: slices shrink with their first entry, so
        # batching them would give the first worker all the largest ones
        with get_context().Pool(workers) as pool:
            partials = pool.map(_classify_slice, slices, chunksize=1)
    else:
        partials = map(_classify_slice, slices)

    # slices arrive in ascending first entry, so every member list stays sorted
    merged: dict[tuple[Weights, Weights], list[Weights]] = {}
    for part in partials:
        for forms, members in part.items():
            merged.setdefault(forms, []).extend(members)
    _box_factors.cache_clear()  # keep no factorizations past the census

    records = []
    for (homeo, homotopy), members in sorted(merged.items()):
        if records and records[-1].homeo_class == homeo:
            raise AssertionError(f"homeomorphism class {homeo} split across homotopy classes")
        records.append(
            ClassRecord(
                representative=members[0],
                homeo_class=homeo,
                homotopy_class=homotopy,
                members=tuple(members),
            )
        )
    return CensusReport(
        dimension=dimension,
        max_weight=max_weight,
        total=total,
        records=tuple(records),
        homeo_classes=len(records),
        homotopy_classes=len({r.homotopy_class for r in records}),
    )
