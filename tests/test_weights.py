import math
import random
import re
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from wproj._kernels_py import canonical_pair
from wproj.classify import homeomorphic
from wproj.errors import InconsistentDataError, InvalidInputError, ResourceLimitError
from wproj.numth import _factor_pairs, p_part
from wproj.weights import (
    MAX_VALUATION_CELLS,
    as_weights,
    divisor_chain_form,
    divisor_count,
    is_divisor_chain,
    is_normalized,
    normalize,
    normalize_with_moves,
    p_content,
    p_content_table,
    p_coprime_parts,
    parse_weights,
    reconstruct_weights,
)

from helpers import apply_move, box, first_primes, primes_dividing, randomized_normalize, rewrite_normalize, sorted_vectors

weight_vectors = st.lists(st.integers(1, 60), min_size=1, max_size=5).map(tuple)

# Entries past the compiled kernel's range (above 2**32, products above
# 2**64) that trial division still factors quickly: a smooth part times at
# most one prime below 2**20.
_large_entries = st.builds(
    lambda smooth, big: math.prod(smooth) * big,
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=40),
    st.sampled_from([1, 1, 65537, 1000003]),
)
# vectors up to 80 entries, past the kernel's 64-weight limit
kernel_boundary_vectors = st.one_of(
    weight_vectors,
    st.lists(_large_entries, min_size=1, max_size=6).map(tuple),
    st.lists(st.one_of(st.integers(1, 60), _large_entries), min_size=60, max_size=80).map(tuple),
)


class TestParsing:
    def test_basic(self):
        assert parse_weights("1,2,3,4") == (1, 2, 3, 4)

    def test_whitespace(self):
        assert parse_weights(" 1 , 2 ,3 ") == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            parse_weights("")

    def test_rejects_garbage_and_nonpositive(self):
        for bad in ("a,b", "1,,2", "1,0", "-1,2"):
            with pytest.raises(InvalidInputError):
                parse_weights(bad)


class Index:
    """An integer type from another library: not an int, but it has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestAsWeights:
    def test_integer_entries_only(self):
        assert as_weights((True, 2, Index(3))) == (1, 2, 3)
        # each of these used to be truncated by int()
        for bad in (2.5, 5.0, "3", Fraction(10, 2)):
            with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
                as_weights((4, bad))
        with pytest.raises(InvalidInputError):
            normalize((2.5, 5))
        with pytest.raises(InvalidInputError):
            homeomorphic((2.9, 3), (2, 3))


class TestIsNormalized:
    def test_examples(self):
        assert is_normalized((1, 2, 3, 4)) is True
        assert is_normalized((1, 1, 1, 1)) is True
        assert is_normalized((1, 2, 4)) is False

    def test_single_weight_is_point(self):
        assert is_normalized((1,)) is True
        assert is_normalized((5,)) is False


class TestNormalize:
    def test_examples(self):
        assert normalize((2, 4, 6)) == (1, 2, 3)
        assert normalize((1, 1, 1)) == (1, 1, 1)
        assert normalize((6, 10, 15)) == (1, 1, 1)
        assert normalize((1, 2, 4)) == (1, 1, 2)

    def test_single_weight(self):
        assert normalize((7,)) == (1,)

    def test_moves_replay(self):
        # every recorded move must be legal at its point and reach the result
        for w in [(6, 10, 15), (2, 4, 6), (12, 30, 50), (8, 2, 4, 6)]:
            result, moves = normalize_with_moves(w)
            state = list(w)
            for move in moves:
                if move[0] == "scale":
                    assert all(x % move[1] == 0 for x in state)
                else:
                    _, p, keep = move
                    coprime = [i for i, x in enumerate(state) if x % p]
                    assert coprime == [keep]
                state = apply_move(state, move)
            assert tuple(state) == result

    def test_result_is_normalized_with_gcd_one(self):
        for w in box(3, 10):
            nw = normalize(w)
            assert math.gcd(*nw) == 1
            assert is_normalized(nw)

    def test_idempotent(self):
        for w in box(3, 10):
            nw = normalize(w)
            assert normalize(nw) == nw

    def test_scaling_invariance(self):
        for w in box(2, 8):
            nw = normalize(w)
            for m in range(1, 11):
                assert normalize(tuple(m * x for x in w)) == nw

    def test_permutation_equivariance(self):
        rng = random.Random(5)
        for _ in range(200):
            w = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 5)))
            key = tuple(sorted(normalize(w)))
            shuffled = tuple(rng.sample(w, len(w)))
            assert tuple(sorted(normalize(shuffled))) == key

    def test_permutation_equivariance_exhaustive_small(self):
        for w in sorted_vectors(3, 8):
            key = tuple(sorted(normalize(w)))
            for perm in permutations(w):
                assert tuple(sorted(normalize(perm))) == key

    def test_confluence_sampled(self):
        # randomized move orders agree with the deterministic result,
        # sampled over dimension <= 4 with entries <= 20
        rng = random.Random(99)
        for _ in range(250):
            w = tuple(rng.randint(1, 20) for _ in range(rng.randint(1, 5)))
            expected = tuple(sorted(normalize(w)))
            for _ in range(40):
                assert randomized_normalize(w, rng) == expected

    @given(weight_vectors, st.integers(1, 10))
    def test_scaling_invariance_hypothesis(self, w, m):
        assert normalize(tuple(m * x for x in w)) == normalize(w)


class TestClosedFormAgainstMoves:
    """The closed-form core checked against the rewriting system it replaces."""

    @settings(deadline=None)
    @given(kernel_boundary_vectors)
    @example(tuple(range(1, 66)))  # 65 weights
    @example((2**33, 3 * 2**32, 5**14))  # entries above 2**32
    @example((1, 2**31, 3**20, 5**13, 7**11))  # chain product above 2**64
    @example((7,))  # g is the single weight itself
    @example((12, 18))  # a two-entry chain
    @example((6, 6, 6))  # g is the common gcd
    def test_normal_and_chain_forms(self, w):
        moved, moves = rewrite_normalize(w)
        assert normalize_with_moves(w) == (moved, moves)
        assert normalize(w) == moved
        chain = [1] * len(w)
        for p in primes_dividing(moved):
            for i, q in enumerate(sorted(p_content(moved, p))):
                chain[i] *= q
        assert divisor_chain_form(w) == tuple(chain)
        assert canonical_pair(w) == (tuple(sorted(moved)), tuple(chain))
        assert is_normalized(moved) and is_normalized(w) == (moved == w)


    def test_move_log_costs_linear_time(self):
        # the rewriting loop rebuilds all 201 weights once per move: 14,000 times
        w = (1,) + (2**14000,) * 200
        _factor_pairs.cache_clear()
        start = time.perf_counter()
        normalized, moves = normalize_with_moves(w)
        elapsed = time.perf_counter() - start
        assert normalized == (1,) * 201
        assert moves == [("reduce", 2, 0)] * 14000
        assert elapsed < 1.0


class TestValuationLimit:
    """The per-prime valuation table is refused before it passes its cell bound."""

    def test_boundary(self):
        n = 10_000
        k = MAX_VALUATION_CELLS // n
        assert is_normalized(tuple(first_primes(k)) + (1,) * (n - k))
        with pytest.raises(ResourceLimitError) as err:
            is_normalized(tuple(first_primes(k + 1)) + (1,) * (n - k - 1))
        assert (err.value.required, err.value.limit) == ((k + 1) * n, MAX_VALUATION_CELLS)

    def test_thousand_distinct_primes_answer(self):
        primes = tuple(first_primes(1000))
        assert normalize(primes) == primes
        assert divisor_chain_form(primes) == (1,) * 999 + (math.prod(primes),)

    def test_every_entry_point_refuses(self):
        w = tuple(first_primes(1001))
        for f in (normalize, divisor_chain_form, is_normalized, p_content_table, normalize_with_moves, canonical_pair):
            with pytest.raises(ResourceLimitError):
                f(w)


class TestPContent:
    def test_quoted_example(self):
        assert p_content((1, 2, 3, 4), 2) == (1, 2, 1, 4)

    def test_inert_prime(self):
        assert p_content((1, 1, 1), 5) == (1, 1, 1)

    def test_direct(self):
        assert p_content((12, 18), 3) == (3, 9)

    def test_rejects_non_prime(self):
        with pytest.raises(InvalidInputError):
            p_content((1, 2), 6)

    def test_integer_prime_only(self):
        # 2.0 used to give (2.0, 4.0)
        with pytest.raises(InvalidInputError, match="2.0"):
            p_content((2, 4), 2.0)

    def test_unfactorable_weight(self):
        # 10**30 + 57 leaves a cofactor past the factoring bound, but its 2-part needs one division
        assert p_content((2, 10**30 + 57), 2) == (2, 1)
        assert p_coprime_parts((2, 10**30 + 57), 2) == (1, 10**30 + 57)

    def test_table_example(self):
        table = p_content_table((1, 2, 3, 4))
        assert set(table) == {2, 3}
        assert table[2].parts == (1, 2, 1, 4)
        assert table[2].sorted_parts == (1, 1, 2, 4)
        assert table[3].parts == (1, 1, 3, 1)
        assert table[3].sorted_parts == (1, 1, 1, 3)

    def test_table_omits_trivial_primes(self):
        assert p_content_table((1, 1, 1)) == {}

    def test_table_sorted_columns(self):
        table = p_content_table((6, 10, 15))
        assert {p: col.parts for p, col in table.items()} == {
            2: (2, 2, 1),
            3: (3, 1, 3),
            5: (1, 5, 5),
        }
        assert {p: col.sorted_parts for p, col in table.items()} == {
            2: (1, 2, 2),
            3: (1, 3, 3),
            5: (1, 5, 5),
        }

    def test_recomposition(self):
        for w in box(3, 12):
            table = p_content_table(w)
            for i, x in enumerate(w):
                assert math.prod(col.parts[i] for col in table.values()) == x


class TestDivisorChainForm:
    def test_quoted_example(self):
        assert divisor_chain_form((1, 2, 3, 4)) == (1, 1, 2, 12)

    def test_ones(self):
        assert divisor_chain_form((1, 1, 1)) == (1, 1, 1)

    def test_normalizes_first(self):
        assert divisor_chain_form((6, 10, 15)) == (1, 1, 1)

    def test_structure(self):
        for w in box(3, 12):
            star = divisor_chain_form(w)
            assert list(star) == sorted(star)
            assert is_divisor_chain(star)
            assert is_normalized(star)
            assert divisor_chain_form(star) == star

    def test_columns_match_normalization(self):
        # sorted p-contents of the form agree with those of the normalization
        for w in box(3, 12):
            nw = normalize(w)
            star = divisor_chain_form(w)
            left = {p: col.sorted_parts for p, col in p_content_table(star).items()}
            right = {p: col.sorted_parts for p, col in p_content_table(nw).items()}
            assert left == right


class TestDivisorChainPredicate:
    def test_examples(self):
        assert is_divisor_chain((1, 1, 2, 12)) is True
        assert is_divisor_chain((1, 2, 3)) is False
        assert is_divisor_chain((7,)) is True


class TestDivisorCount:
    def test_examples(self):
        assert divisor_count((1, 2, 3, 4), 2) == 2
        assert divisor_count((1, 2, 3, 4), 1) == 4
        assert divisor_count((1, 2, 3, 4), 5) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            divisor_count((1, 2), 0)

    def test_integer_divisor_only(self):
        # 2.0 used to give 2
        with pytest.raises(InvalidInputError, match="2.0"):
            divisor_count((2, 4), 2.0)


class TestReconstruction:
    @staticmethod
    def counts_of(w, bound):
        return {d: divisor_count(w, d) for d in range(1, bound + 1)}

    def test_round_trip_examples(self):
        assert reconstruct_weights(self.counts_of((1, 2, 3, 4), 4), 4) == (1, 2, 3, 4)
        assert reconstruct_weights(self.counts_of((1, 1, 2, 12), 12), 12) == (1, 1, 2, 12)

    def test_all_ones(self):
        counts = {1: 4} | {d: 0 for d in range(2, 7)}
        assert reconstruct_weights(counts, 6) == (1, 1, 1, 1)

    def test_round_trip_exhaustive(self):
        for w in box(2, 12):
            nw = tuple(sorted(normalize(w)))
            counts = self.counts_of(nw, max(nw))
            assert reconstruct_weights(counts, max(nw)) == nw

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(InconsistentDataError):
            # claims two weights divisible by 4 but only one by 2
            reconstruct_weights({1: 3, 2: 1, 3: 0, 4: 2}, 4)
        with pytest.raises(InconsistentDataError):
            # totals cannot be matched by any multiset
            reconstruct_weights({1: 1, 2: 1, 3: 1}, 3)

    def test_integer_arguments_only(self):
        # both used to raise TypeError
        with pytest.raises(InvalidInputError, match=r"^max_weight must be an integer, got 1\.5"):
            reconstruct_weights({1: 1}, 1.5)
        with pytest.raises(InvalidInputError, match=r"^counts\[1\] must be an integer, got 2\.5"):
            reconstruct_weights({1: 2.5}, 1)

    def test_missing_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            reconstruct_weights({1: 2}, 3)

    def test_cost_is_quasilinear(self):
        # the weights 1..n: n // d of them are divisible by d
        n = 20_000
        start = time.perf_counter()
        assert reconstruct_weights({d: n // d for d in range(1, n + 1)}, n) == tuple(range(1, n + 1))
        assert time.perf_counter() - start < 1.0


class TestPCoprimeParts:
    def test_examples(self):
        assert p_coprime_parts((1, 2, 3, 4), 2) == (1, 1, 3, 1)
        assert p_coprime_parts((1, 1, 2), 2) == (1, 1, 1)
        assert p_coprime_parts((1, 2, 3, 4), 5) == (1, 2, 3, 4)

    def test_integer_prime_only(self):
        # 2.0 used to give (1.0, 1.0)
        with pytest.raises(InvalidInputError, match="2.0"):
            p_coprime_parts((2, 4), 2.0)

    def test_always_coprime(self):
        for w in sorted_vectors(3, 12):
            for p in (2, 3, 5, 7):
                parts = p_coprime_parts(w, p)
                assert all(c % p for c in parts)
                assert all(x == p_part(x, p) * c for x, c in zip(w, parts))
