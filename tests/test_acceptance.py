"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each criterion prints a single PASS/FAIL line (visible under ``pytest -s``);
``python tests/test_acceptance.py`` runs them all standalone and exits
nonzero if any fails.  Bounds and tolerances are fixed here, not tuned.
"""

import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

from wproj.classify import (
    homeo_canonical_form,
    homeomorphic,
    homotopy_canonical_form,
    homotopy_equivalent,
)
from wproj.cohom import (
    graded_ring_iso,
    lens_cohomology,
    pullback_coefficients,
    ring,
)
from wproj.numth import is_p_local_unit, is_prime, unit_split
from wproj.strata import local_homology_order
from wproj.weights import (
    divisor_chain_form,
    divisor_count,
    is_divisor_chain,
    is_normalized,
    normalize,
    p_content,
    reconstruct_weights,
)

from helpers import box, randomized_normalize, sorted_vectors, subset_lcm_sequence, trial_factor

SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]


def report(number: int, label: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} PASS  {label}{suffix}")


def random_vectors(rng, count, max_dim, max_entry):
    for _ in range(count):
        yield tuple(rng.randint(1, max_entry) for _ in range(rng.randint(1, max_dim + 1)))


def test_criterion_01_quoted_examples_exact():
    # warm caches, then time the two calls themselves
    p_content((1, 2, 3, 4), 2)
    divisor_chain_form((1, 2, 3, 4))
    best = min(
        _timed(lambda: (p_content((1, 2, 3, 4), 2), divisor_chain_form((1, 2, 3, 4))))
        for _ in range(5)
    )
    assert p_content((1, 2, 3, 4), 2) == (1, 2, 1, 4)
    assert divisor_chain_form((1, 2, 3, 4)) == (1, 1, 2, 12)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    report(1, "quoted examples exact", f"{best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_multiplier_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for w in box(3, 20):
        assert pullback_coefficients(w) == subset_lcm_sequence(w)
        checked += 1
    rng = random.Random(1002)
    for w in random_vectors(rng, 10_000, 5, 100):
        assert pullback_coefficients(w) == subset_lcm_sequence(w)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    report(2, "multiplier sequence equals subset-lcm oracle", f"{checked} vectors, {elapsed:.1f} s")


def test_criterion_03_ring_well_formedness():
    checked = 0

    def check(w):
        presentation = ring(w)  # integrality asserted during construction
        n = presentation.n
        for i in range(n + 1):
            for j in range(n + 1 - i):
                c = presentation.constant(i, j)
                assert isinstance(c, int) and c > 0
                assert c == presentation.constant(j, i)
        for i in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    if i + j + k <= n:
                        assert presentation.constant(i, j) * presentation.constant(i + j, k) == \
                            presentation.constant(j, k) * presentation.constant(i, j + k)

    for w in box(3, 20):
        check(w)
        checked += 1
    rng = random.Random(1003)
    for w in random_vectors(rng, 10_000, 5, 100):
        check(w)
        checked += 1
    report(3, "structure constants integral, symmetric, associative", f"{checked} rings")


def test_criterion_04_normalization_confluence_and_invariance():
    start = time.perf_counter()
    rng = random.Random(1004)
    runs = 0
    for w in box(3, 12):
        expected = tuple(sorted(normalize(w)))
        for _ in range(200):
            assert randomized_normalize(w, rng) == expected
            runs += 1
        for m in range(1, 11):
            assert normalize(tuple(m * x for x in w)) == normalize(w)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f} s"
    report(4, "normalization confluent and scale-invariant", f"{runs} randomized runs, {elapsed:.1f} s")


def test_criterion_05_classification_coherence():
    vectors = list(box(2, 12))
    rng = random.Random(1005)
    vectors += rng.sample(list(sorted_vectors(4, 12)), 150)
    forms = [(homeo_canonical_form(w), homotopy_canonical_form(w)) for w in vectors]
    rings = {}
    for w, (h, t) in zip(vectors, forms):
        if h not in rings:
            rings[h] = ring(h)
    pairs = 0
    for i in range(len(vectors)):
        hi, ti = forms[i]
        for j in range(i, len(vectors)):
            hj, tj = forms[j]
            if hi == hj:
                assert ti == tj  # homeomorphic => homotopy equivalent
            assert (ti == tj) == graded_ring_iso(rings[hi], rings[hj])
            pairs += 1
    report(5, "homeo refines homotopy; homotopy matches ring isomorphism", f"{pairs} pairs")


def test_criterion_06_witness_pair():
    assert homeomorphic((1, 2, 3, 4), (1, 1, 2, 12)) is False
    assert homotopy_equivalent((1, 2, 3, 4), (1, 1, 2, 12)) is True
    report(6, "witness pair: equivalent but not homeomorphic")


def test_criterion_07_classical_lens_spaces():
    for n in range(1, 5):
        for k in range(1, 13):
            groups = lens_cohomology(k, (1,) * (n + 1))
            for i in range(1, n + 1):
                assert groups[2 * i] == k
            assert groups[0] == 0 and groups[2 * n + 1] == 0
    report(7, "equal-weight lens spaces have order-k middle cohomology", "k <= 12, n <= 4")


def test_criterion_08_local_order_equals_lens_order():
    start = time.perf_counter()
    checked = 0
    for w in box(3, 12):
        if not is_normalized(w):
            continue
        indices = range(len(w))
        for size in range(1, len(w) - 1):
            for J in combinations(indices, size):
                q = local_homology_order(w, J)
                cone = tuple(w[i] for i in indices if i not in J)
                m = len(cone) - 1
                assert q == lens_cohomology(q, cone)[2 * m]
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f} s"
    report(8, "stratum gcd equals lens-space cohomology order", f"{checked} strata, {elapsed:.1f} s")


def test_criterion_09_reconstruction_round_trip():
    for w in box(3, 12):
        nw = normalize(w)
        target = tuple(sorted(nw))
        counts = {d: divisor_count(nw, d) for d in range(1, max(nw) + 1)}
        assert reconstruct_weights(counts, max(nw)) == target
    report(9, "weights reconstructed from divisor counts")


def test_criterion_10_unit_split_contract():
    rng = random.Random(1010)
    for _ in range(1000):
        x = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        P = frozenset(rng.sample(SMALL_PRIMES, rng.randint(1, 10)))
        u, v = unit_split(x, P)
        assert u * v == x
        assert v > 0
        assert (u < 0) == (x < 0)
        assert is_p_local_unit(u, P)
        support = set(trial_factor(v.numerator)) | set(trial_factor(v.denominator))
        assert support <= P
    report(10, "unit/supported split contract holds", "1000 random rationals")


def test_criterion_11_derived_identities():
    vectors = list(box(2, 12))
    rng = random.Random(1011)
    vectors += rng.sample(list(sorted_vectors(4, 12)), 200)
    for w in vectors:
        l = pullback_coefficients(w)
        if len(w) > 1:
            assert l[1] == math.lcm(*w)
        if is_normalized(w):
            assert l[-1] == math.prod(w)
        star = divisor_chain_form(w)
        assert is_divisor_chain(star)
        assert is_normalized(star)
        assert divisor_chain_form(star) == star
    report(11, "multiplier and divisor-chain identities", f"{len(vectors)} vectors")


CRITERIA = [
    test_criterion_01_quoted_examples_exact,
    test_criterion_02_multiplier_oracle_equivalence,
    test_criterion_03_ring_well_formedness,
    test_criterion_04_normalization_confluence_and_invariance,
    test_criterion_05_classification_coherence,
    test_criterion_06_witness_pair,
    test_criterion_07_classical_lens_spaces,
    test_criterion_08_local_order_equals_lens_order,
    test_criterion_09_reconstruction_round_trip,
    test_criterion_10_unit_split_contract,
    test_criterion_11_derived_identities,
]


def main() -> int:
    failures = 0
    for number, criterion in enumerate(CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"ACCEPTANCE {number:02d} FAIL  {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
