import math
import random
from itertools import product

import pytest

from wproj.cohom import (
    RingPresentation,
    additive_cohomology,
    graded_ring_iso,
    lens_cohomology,
    pullback_coefficients,
    ring,
)
from wproj.errors import InvalidInputError
from wproj.weights import divisor_chain_form, is_normalized, normalize

from helpers import box, sorted_vectors, subset_lcm_sequence


class TestPullbackCoefficients:
    def test_examples(self):
        assert pullback_coefficients((1, 2, 3, 4)) == (1, 12, 24, 24)
        assert pullback_coefficients((1, 1, 1)) == (1, 1, 1)
        assert pullback_coefficients((1, 1, 2)) == (1, 2, 2)

    def test_subset_lcm_examples(self):
        assert subset_lcm_sequence((1, 2, 3, 4)) == (1, 12, 24, 24)
        # a single weight has only the empty subset in range; the one-element
        # subset first appears one dimension up
        assert subset_lcm_sequence((7,)) == (1,)
        assert subset_lcm_sequence((1, 7)) == (1, 7)
        assert subset_lcm_sequence((1, 1, 2, 12)) == (1, 12, 24, 24)

    def test_routes_agree_exhaustively(self):
        for w in box(2, 15):
            assert pullback_coefficients(w) == subset_lcm_sequence(w)

    def test_routes_agree_random(self):
        rng = random.Random(3)
        for _ in range(1500):
            w = tuple(rng.randint(1, 100) for _ in range(rng.randint(1, 5)))
            assert pullback_coefficients(w) == subset_lcm_sequence(w)
        # entries above 2^64: the first powers of 2, 3, 5, 7 and 65521 past 2^64, times small cofactors
        big = (2**65, 3**41, 5**28, 7**23, 65521**5)
        for _ in range(300):
            w = tuple(
                rng.choice(big) * rng.randint(1, 100) if rng.random() < 0.5 else rng.randint(1, 100)
                for _ in range(rng.randint(1, 5))
            )
            assert pullback_coefficients(w) == subset_lcm_sequence(w)

    def test_divisibility_chain(self):
        for w in box(3, 12):
            l = pullback_coefficients(w)
            assert l[0] == 1
            assert all(b % a == 0 for a, b in zip(l, l[1:]))

    def test_first_is_lcm_last_is_product_when_normalized(self):
        for w in box(3, 12):
            l = pullback_coefficients(w)
            if len(w) > 1:
                assert l[1] == math.lcm(*w)
            if is_normalized(w):
                assert l[-1] == math.prod(w)


class TestRing:
    def test_examples(self):
        assert ring((1, 1, 2)).constant(1, 1) == 2
        cp2 = ring((1, 1, 1))
        assert all(c == 1 for c in cp2.constants.values())
        r = ring((1, 2, 3, 4))
        assert r.constant(1, 1) == 6
        assert r.constant(1, 2) == 12
        assert r.constant(2, 1) == 12

    def test_unit_constants(self):
        for w in box(3, 10):
            r = ring(w)
            for j in range(r.n + 1):
                assert r.constant(0, j) == 1

    def test_constants_positive_and_associative(self):
        for w in box(3, 12):
            r = ring(w)
            n = r.n
            for (i, j), c in r.constants.items():
                assert isinstance(c, int) and c > 0
            for i in range(n + 1):
                for j in range(n + 1):
                    for k in range(n + 1):
                        if i + j + k <= n:
                            assert r.constant(i, j) * r.constant(i + j, k) == r.constant(j, k) * r.constant(i, j + k)

    def test_presentation_validation(self):
        with pytest.raises(InvalidInputError):
            RingPresentation(1, (2, 2), {(0, 0): 1, (0, 1): 1})
        with pytest.raises(InvalidInputError):
            RingPresentation(2, (1, 2, 4), {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 3})
        # non-positive multipliers: a negative constant, and a zero divisor
        with pytest.raises(InvalidInputError):
            RingPresentation(2, (1, -2, -4), {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): -1})
        with pytest.raises(InvalidInputError):
            RingPresentation(2, (1, 0, 0), {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 1})
        with pytest.raises(InvalidInputError):
            RingPresentation(n=1, pullback=(1, 2), constants={(0, 0): 1})

    def test_integer_fields_only(self):
        # a float n used to raise TypeError, n = -1 an IndexError, and a float multiplier passed
        constants = {(0, 0): 1, (0, 1): 1}
        with pytest.raises(InvalidInputError, match=r"^n must be an integer, got 1\.0"):
            RingPresentation(1.0, (1, 2), constants)
        with pytest.raises(InvalidInputError, match="^n must be nonnegative, got -1"):
            RingPresentation(-1, (), {})
        with pytest.raises(InvalidInputError, match=r"^pullback must be integers, got 2\.0"):
            RingPresentation(1, (1, 2.0), constants)
        assert RingPresentation(1, [1, 2], constants).pullback == (1, 2)

    @pytest.mark.parametrize(
        "constants",
        [{(0, 0): 1.0, (0, 1): 1}, {(0.0, 0): 1, (0, 1): 1}, {(0, 0): 1, (0, 1.0): 1}, {(0, 0): 1, (0, 1): "1"}],
    )
    def test_integer_constants_only(self, constants):
        # each equals a valid dict key for key; a float constant used to be stored,
        # and a float index to raise TypeError
        with pytest.raises(InvalidInputError, match=r"^constants must be integers at integer index pairs"):
            RingPresentation(1, (1, 2), constants)

    def test_named_tuple(self):
        r = ring((1, 1, 2))
        n, pullback, constants = r
        assert r == (n, pullback, constants) == (2, (1, 2, 2), {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 2})
        # the constants are a dict, so the hash reads the other two fields only
        assert hash(r) == hash(ring((2, 1, 1))) == hash((2, (1, 2, 2)))
        with pytest.raises(InvalidInputError):
            r._replace(n=5)
        with pytest.raises(InvalidInputError):
            RingPresentation._make((1, (2, 2), {}))


class TestAdditiveCohomology:
    def test_examples(self):
        assert additive_cohomology((1, 2, 3, 4)) == {0: 0, 2: 0, 4: 0, 6: 0}
        assert additive_cohomology((5,)) == {0: 0}
        assert additive_cohomology((1, 1)) == {0: 0, 2: 0}


class TestLensCohomology:
    def test_classical_lens_spaces(self):
        for n in range(1, 5):
            for k in range(1, 13):
                groups = lens_cohomology(k, (1,) * (n + 1))
                assert groups[0] == 0 and groups[2 * n + 1] == 0
                for i in range(1, n + 1):
                    assert groups[2 * i] == k

    def test_augmenting_by_one_changes_nothing(self):
        for w in sorted_vectors(3, 8):
            groups = lens_cohomology(1, w)
            assert all(groups[2 * i] == 1 for i in range(1, len(w)))

    def test_derived_example(self):
        assert lens_cohomology(2, (1, 1, 2)) == {0: 0, 2: 1, 4: 2, 5: 0}

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            lens_cohomology(0, (1, 1))

    def test_integer_order_only(self):
        # 2.5 used to give {0: 0, 2: 2.0, 3: 0}
        with pytest.raises(InvalidInputError, match="2.5"):
            lens_cohomology(2.5, (1, 2))

    def test_orders_always_positive_integers(self):
        rng = random.Random(8)
        for _ in range(500):
            w = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 4)))
            k = rng.randint(1, 30)
            groups = lens_cohomology(k, w)
            n = len(w) - 1
            assert set(groups) == {0, 2 * n + 1} | {2 * i for i in range(1, n + 1)}
            assert all(q >= 1 for d, q in groups.items() if d not in (0, 2 * n + 1))

    def test_orders_match_subset_lcm_oracle(self):
        rng = random.Random(11)
        cases = [(k, w) for w in box(2, 10) for k in range(1, 13)]
        for _ in range(500):
            cases.append((rng.randint(1, 200), tuple(rng.randint(1, 100) for _ in range(rng.randint(1, 5)))))
        for k, w in cases:
            groups = lens_cohomology(k, w)
            plain, augmented = subset_lcm_sequence(w), subset_lcm_sequence(w + (k,))
            for i in range(1, len(w)):
                assert groups[2 * i] == augmented[i] // plain[i]

    def test_circle_quotient(self):
        # a single weight gives the circle, whatever k is
        assert lens_cohomology(5, (3,)) == {0: 0, 1: 0}


class TestGradedRingIso:
    def test_examples(self):
        assert graded_ring_iso(ring((1, 2, 3, 4)), ring((1, 1, 2, 12))) is True
        assert graded_ring_iso(ring((1, 1, 2)), ring((1, 1, 1))) is False
        r = ring((2, 3, 10))
        assert graded_ring_iso(r, r) is True

    def test_dimension_mismatch(self):
        assert graded_ring_iso(ring((1, 1)), ring((1, 1, 1))) is False

    def test_matches_sign_search(self):
        # brute force over the sign rescalings of the generators
        def sign_search(a, b):
            signs = product((1, -1), repeat=a.n)
            return a.n == b.n and any(
                all(e[i] * e[j] * c == e[i + j] * b.constants[i, j] for (i, j), c in a.constants.items())
                for e in ((1,) + s for s in signs)
            )

        rings = [ring(w) for w in box(3, 6)]
        rng = random.Random(17)
        for _ in range(2000):
            a, b = rng.choice(rings), rng.choice(rings)
            assert graded_ring_iso(a, b) == sign_search(a, b)

    def test_large_dimension(self):
        # n = 16: decided from the constants, no 2**16 sign enumeration
        assert graded_ring_iso(ring((1,) * 16 + (2,)), ring((1,) * 17)) is False
        assert graded_ring_iso(ring((1,) * 15 + (2, 3)), ring((1,) * 16 + (6,))) is True

    def test_matches_divisor_chain_form(self):
        vectors = list(box(2, 10))
        forms = [divisor_chain_form(w) for w in vectors]
        rings = [ring(normalize(w)) for w in vectors]
        rng = random.Random(31)
        for _ in range(3000):
            i, j = rng.randrange(len(vectors)), rng.randrange(len(vectors))
            same_form = forms[i] == forms[j]
            assert graded_ring_iso(rings[i], rings[j]) == same_form
            # same form <=> same multiplier sequence on normalized vectors
            assert (rings[i].n == rings[j].n and rings[i].pullback == rings[j].pullback) == same_form

