import math
import multiprocessing
import random
import time
from itertools import permutations
from types import SimpleNamespace

import pytest

import wproj
from wproj import _kernels_py, classify
from wproj.classify import (
    census,
    homeo_canonical_form,
    homeomorphic,
    homotopy_canonical_form,
    homotopy_equivalent,
)
from wproj.cohom import graded_ring_iso, ring
from wproj.errors import InvalidInputError, ResourceLimitError
from wproj.weights import divisor_chain_form, divisor_count, normalize, reconstruct_weights

from helpers import box, randomized_normalize, sorted_vectors


class TestCanonicalForms:
    def test_homeo_examples(self):
        assert homeo_canonical_form((2, 4, 6)) == (1, 2, 3)
        assert homeo_canonical_form((4, 3, 2, 1)) == (1, 2, 3, 4)
        assert homeo_canonical_form((6, 10, 15)) == (1, 1, 1)
        # entries past 64-bit products and vectors past 64 weights
        assert homeo_canonical_form((2**40, 3 * 2**40, 5 * 2**40)) == (1, 3, 5)
        assert homeo_canonical_form((1,) * 65) == (1,) * 65

    def test_homotopy_examples(self):
        assert homotopy_canonical_form((1, 2, 3, 4)) == (1, 1, 2, 12)
        assert homotopy_canonical_form((1, 2, 3)) == (1, 1, 6)
        assert homotopy_canonical_form((1, 1, 1)) == (1, 1, 1)
        assert homotopy_canonical_form((2**40, 3 * 2**40, 5 * 2**40)) == (1, 1, 15)
        assert homotopy_canonical_form((1,) * 65) == (1,) * 65

    def test_stability(self):
        rng = random.Random(17)
        for _ in range(200):
            w = tuple(rng.randint(1, 25) for _ in range(rng.randint(1, 5)))
            h, t = homeo_canonical_form(w), homotopy_canonical_form(w)
            m = rng.randint(2, 9)
            scaled = tuple(m * x for x in w)
            shuffled = tuple(rng.sample(w, len(w)))
            assert homeo_canonical_form(scaled) == h
            assert homeo_canonical_form(shuffled) == h
            assert homotopy_canonical_form(scaled) == t
            assert homotopy_canonical_form(shuffled) == t
            assert homeo_canonical_form(h) == h
            assert homotopy_canonical_form(t) == t


def test_backend_name_is_constant():
    # public API kept for callers of the removed kernel selection
    assert wproj.backend_name() == "python"


class TestPredicates:
    def test_homeomorphic_examples(self):
        assert homeomorphic((2, 4, 6), (1, 2, 3)) is True
        assert homeomorphic((1, 2, 3, 4), (3, 1, 4, 2)) is True
        assert homeomorphic((1, 2, 3, 4), (1, 1, 2, 12)) is False

    def test_homotopy_examples(self):
        assert homotopy_equivalent((1, 2, 3, 4), (1, 1, 2, 12)) is True
        assert homotopy_equivalent((1, 2, 3), (1, 1, 6)) is True
        assert homotopy_equivalent((1, 1, 2), (1, 1, 1)) is False

    def test_witness_pair(self):
        # equivalent but not homeomorphic: the canonical example
        assert homeomorphic((1, 2, 3, 4), (1, 1, 2, 12)) is False
        assert homotopy_equivalent((1, 2, 3, 4), (1, 1, 2, 12)) is True

    def test_refinement(self):
        vectors = list(box(2, 12))
        for i in range(0, len(vectors), 7):
            for j in range(0, len(vectors), 11):
                a, b = vectors[i], vectors[j]
                if homeomorphic(a, b):
                    assert homotopy_equivalent(a, b)

    def test_ring_consistency(self):
        vectors = list(sorted_vectors(3, 9))
        rng = random.Random(23)
        sample = rng.sample(vectors, 60)
        rings = {w: ring(normalize(w)) for w in sample}
        for a in sample:
            for b in sample:
                assert homotopy_equivalent(a, b) == graded_ring_iso(rings[a], rings[b])

    def test_reconstruction_consistency(self):
        for w in box(2, 12):
            nw = homeo_canonical_form(w)
            counts = {d: divisor_count(normalize(w), d) for d in range(1, max(nw) + 1)}
            assert reconstruct_weights(counts, max(nw)) == nw


def stand_in_pool(monkeypatch, cpus):
    """Report ``cpus`` processors and replace the process pool by one that runs the slices here.

    Returns the list of worker counts the census asked for.
    """
    started = []

    class Pool:
        def __init__(self, count):
            started.append(count)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            assert chunksize == 1
            return list(map(fn, items))

    monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", lambda: SimpleNamespace(Pool=Pool))
    return started


class TestCensus:
    def test_single_point(self):
        report = census(1, 1)
        assert report.total == 1
        assert report.homeo_classes == report.homotopy_classes == 1
        assert report.records[0].homeo_class == (1, 1)

    def test_all_lines_collapse(self):
        # every two-weight space is the projective line
        report = census(1, 3)
        assert report.total == 6
        assert report.homeo_classes == 1
        assert report.records[0].members == tuple(sorted_vectors(2, 3))

    def test_against_randomized_normalizer(self):
        rng = random.Random(41)
        report = census(2, 4)
        classes = {}
        for w in sorted_vectors(3, 4):
            classes.setdefault(randomized_normalize(w, rng), []).append(w)
        assert report.homeo_classes == len(classes)
        by_class = {r.homeo_class: list(r.members) for r in report.records}
        assert by_class == classes

    def test_record_invariants(self):
        for dimension, max_weight, workers in [(2, 12, 1), (2, 12, 2), (3, 8, 1), (3, 8, 2)]:
            report = census(dimension, max_weight, workers=workers)
            seen = []
            for record in report.records:
                assert record.representative == record.members[0]
                assert list(record.members) == sorted(record.members)
                assert record.homotopy_class == divisor_chain_form(record.homeo_class)
                for member in record.members:
                    assert homeo_canonical_form(member) == record.homeo_class
                    assert homotopy_canonical_form(member) == record.homotopy_class
                seen.extend(record.members)
            assert len(seen) == len(set(seen)) == report.total
            assert report.homotopy_classes == len({r.homotopy_class for r in report.records})

    @pytest.mark.parametrize("workers", [1, 2])
    # (1, 2, 2) shares the slice of (1, 1, 1), its homeomorphism class; (2, 2, 2) does not
    @pytest.mark.parametrize("moved", [(1, 2, 2), (2, 2, 2)])
    def test_split_class_refused(self, monkeypatch, moved, workers):
        pair = _kernels_py.canonical_pair

        def wrapped(v):
            homeo, homotopy = pair(v)
            return homeo, (1, 1, 2) if v == moved else homotopy

        started = stand_in_pool(monkeypatch, cpus=2)
        monkeypatch.setattr(_kernels_py, "canonical_pair", wrapped)
        with pytest.raises(AssertionError, match=r"class \(1, 1, 1\) split across homotopy classes"):
            census(2, 4, workers=workers)
        assert started == ([2] if workers == 2 else [])

    def test_refinement_verified_by_partitions(self):
        report = census(2, 12)
        homotopy_partition = {}
        for record in report.records:
            homotopy_partition.setdefault(record.homotopy_class, set()).update(record.members)
        # every homeomorphism class sits inside one homotopy class
        assert sum(len(v) for v in homotopy_partition.values()) == report.total

    def test_budget(self):
        with pytest.raises(ResourceLimitError) as err:
            census(3, 500)
        assert err.value.required > err.value.limit

    @pytest.mark.parametrize("dimension", range(6))
    def test_budget_count_against_comb(self, dimension):
        for max_weight in range(1, 25):
            total = math.comb(max_weight + dimension, dimension + 1)
            for limit in (-5, 0, 1, total - 1, total, total + 1, 10**7):
                count = classify._multiset_count(dimension, max_weight, limit)
                # exact within the budget, a lower bound past it
                assert count == total if total <= limit else limit < count <= total

    def test_budget_refusal_is_bounded(self):
        # comb(2000000, 1000001) alone takes tens of seconds
        with pytest.raises(ResourceLimitError) as err:
            census(10**6, 10**6)
        assert err.value.limit < err.value.required < 10**20

    def test_entry_budget(self):
        # a vector of 4 entries is charged by the vector budget alone, a longer one is not
        total = math.comb(6 + 3, 4)
        assert census(3, 6, limit=total).total == total
        with pytest.raises(ResourceLimitError) as err:
            census(4, 5, limit=math.comb(5 + 4, 5))
        assert err.value.required == 5 * math.comb(5 + 4, 5)
        assert err.value.limit == 4 * math.comb(5 + 4, 5)

    @pytest.mark.parametrize("dimension", [10_000, 100_000])
    def test_entry_budget_refusal_is_fast(self, dimension):
        # within the default vector budget, but 10**8 and 10**10 entries
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            census(dimension, 2)
        assert time.perf_counter() - start < 1.0
        assert err.value.required == (dimension + 2) * (dimension + 1)
        assert err.value.limit == 4 * classify.DEFAULT_CENSUS_LIMIT

    def test_budget_override(self):
        report = census(1, 4, limit=10)
        assert report.total == 10

    def test_workers_agree(self):
        assert census(2, 8, workers=2) == census(2, 8)

    @pytest.mark.parametrize("workers, cpus, processes", [(64, 2, 2), (64, 16, 5), (3, 16, 3), (64, None, None), (2, 1, None)])
    def test_worker_count_clamped(self, monkeypatch, workers, cpus, processes):
        expected = census(1, 5)
        started = stand_in_pool(monkeypatch, cpus)
        assert census(1, 5, workers=workers) == expected
        assert started == ([processes] if processes else [])

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            census(-1, 3)
        with pytest.raises(InvalidInputError):
            census(1, 0)
        for workers in (0, -1):
            with pytest.raises(InvalidInputError):
                census(1, 3, workers=workers)

    @pytest.mark.parametrize(
        "args, kwargs, named",
        [
            ((1.5, 3), {}, "dimension"),
            (("1", 3), {}, "dimension"),
            ((1, 3), {"workers": 1.5}, "workers"),
            ((1, 3), {"limit": 2.5}, "limit"),
        ],
    )
    def test_integer_arguments_only(self, args, kwargs, named):
        # each used to raise TypeError, except the limit, which was compared as given
        with pytest.raises(InvalidInputError, match=f"^{named} must be an integer"):
            census(*args, **kwargs)

    def test_dimension_zero(self):
        report = census(0, 9)
        assert report.homeo_classes == 1
        assert report.records[0].homeo_class == (1,)


def test_permutations_are_homeomorphic():
    for w in sorted_vectors(3, 5):
        for perm in permutations(w):
            assert homeomorphic(w, perm)
