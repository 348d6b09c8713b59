import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wproj import numth
from wproj.classify import census
from wproj.cohom import RingPresentation, lens_cohomology
from wproj.errors import InvalidInputError, NotPLocalError, ResourceLimitError
from wproj.numth import (
    TRIAL_DIVISION_BOUND,
    as_prime_set,
    factorize,
    is_p_local,
    is_p_local_unit,
    is_prime,
    p_part,
    unit_split,
)
from wproj.strata import singular_subspace, stratum_chart
from wproj.weights import divisor_count, normalize, p_content, p_coprime_parts, reconstruct_weights

from helpers import split_prime_by_prime, trial_factor

SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]
# primes a P-local split divides out of numerators and denominators past 2**64
SPLIT_PRIMES = [2, 3, 5, 7, 65521, 2**61 - 1]


def remultiply(factors):
    return math.prod(p**e for p, e in factors.items())


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == {}

    def test_twelve(self):
        assert factorize(12) == {2: 2, 3: 1}

    def test_360_remultiplies(self):
        f = factorize(360)
        assert f == {2: 3, 3: 2, 5: 1}
        assert remultiply(f) == 360

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            factorize(0)
        with pytest.raises(InvalidInputError):
            factorize(-6)

    def test_keys_ascending_and_prime(self):
        for m in (2, 97, 1024, 30030, 999983, 2**20 * 3**5):
            keys = list(factorize(m))
            assert keys == sorted(keys)
            assert all(is_prime(p) for p in keys)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_round_trip(self, m):
        f = factorize(m)
        assert remultiply(f) == m
        assert all(e >= 1 for e in f.values())
        assert f == trial_factor(m)


# the primes on either side of the sieve bound 2**16
PRIMES_NEAR_2_TO_16 = [p for p in range(2**16 - 300, 2**16 + 300) if trial_factor(p) == {p: 1}]


class TestSievedPrimes:
    def test_table_is_the_primes_below_2_to_16(self):
        expected = tuple(p for p in range(2, 2**16) if trial_factor(p) == {p: 1})
        assert numth._SMALL_PRIMES == expected
        assert len(expected) == 6542 and expected[-1] == 65521

    @pytest.mark.parametrize(
        "m, factors",
        [
            (65521 * 65537, {65521: 1, 65537: 1}),
            (65537**2, {65537: 2}),
            (65537 * 65539, {65537: 1, 65539: 1}),
            (4294967291, {4294967291: 1}),  # the largest prime below 2**32
            (2**40 - 87, {2**40 - 87: 1}),  # the largest prime below 2**40
        ],
    )
    def test_handoff_from_table_to_odd_numbers(self, m, factors):
        assert all(trial_factor(p) == {p: 1} for p in factors)
        assert factorize(m) == factors
        assert is_prime(m) == (factors == {m: 1})

    @given(
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=12),
        st.sampled_from(PRIMES_NEAR_2_TO_16),
    )
    def test_smooth_times_a_prime_near_2_to_16(self, smooth, p):
        m = math.prod(smooth) * p
        assert factorize(m) == trial_factor(m)
        assert is_prime(m) == (not smooth)


class TestTrialBlocks:
    """The gcd with a block's product passes over exactly the blocks with no divisor."""

    def test_blocks_cover_the_primes_then_the_odd_numbers(self):
        *prime_blocks, (tail, tail_product) = numth._TRIAL_BLOCKS
        assert tuple(p for block, _ in prime_blocks for p in block) == numth._SMALL_PRIMES
        assert all(product == math.prod(block) for block, product in prime_blocks)
        assert tail_product == 0 and tail[0] == 2**16 + 1

    def test_every_block_edge(self):
        blocks = [block for block, _ in numth._TRIAL_BLOCKS]
        edges = [(a[-1], b[0]) for a, b in zip(blocks, blocks[1:])]
        assert edges[-1] == (65521, 65537)
        cases = [last * first for last, first in edges] + [65521**2]
        for block in blocks:
            square = block[0] ** 2
            cases += [square - 1, square, square + 1]
        for m in cases:
            assert list(numth._scan(m)) == list(trial_factor(m).items()), m


class TestTrialDivisionBound:
    def test_everything_below_2_to_40_factors(self):
        assert TRIAL_DIVISION_BOUND**2 == 2**40
        largest_prime = 2**40 - 87
        assert is_prime(largest_prime)
        assert factorize(3 * largest_prime) == {3: 1, largest_prime: 1}
        # two primes just below the bound
        assert factorize(1048571 * 1048573) == {1048571: 1, 1048573: 1}
        assert not is_prime(1048571 * 1048573)

    def test_smooth_times_one_prime_below_2_to_40(self):
        # the cofactor left after the primes up to the bound is at most 2**40
        assert factorize(2**100 * 3**50 * 1000003) == {2: 100, 3: 50, 1000003: 1}
        assert factorize(2**100 * 1048573 * (2**40 - 87)) == {2: 100, 1048573: 1, 2**40 - 87: 1}

    @pytest.mark.parametrize("m", [10**30 + 57, 1048583 * 1048589, 2**40 + 15])
    def test_refuses_cofactors_past_the_bound(self, m):
        assert m > 2**40
        with pytest.raises(ResourceLimitError):
            factorize(m)
        with pytest.raises(ResourceLimitError):
            factorize(6 * m)
        # primality needs no factor: only past the Miller-Rabin bound is it refused
        if m > 3_317_044_064_679_887_385_961_981:
            with pytest.raises(ResourceLimitError):
                is_prime(m)
        else:
            assert is_prime(m) == (m == 2**40 + 15)

    def test_is_prime_refusal_names_the_miller_rabin_bound(self):
        bound = 3_317_044_064_679_887_385_961_981
        for m in (10**30 + 57, bound):
            with pytest.raises(ResourceLimitError, match=str(bound)) as info:
                is_prime(m)
            assert (info.value.required, info.value.limit) == (m, bound)

    def test_huge_composite_with_small_divisor_is_not_prime(self):
        assert not is_prime(3 * (10**30 + 57))

    def test_unit_split_factors_nothing(self):
        x = Fraction(12 * (10**30 + 57), 7)
        assert unit_split(x, {2, 3}) == (Fraction(10**30 + 57, 7), Fraction(12))


class TestIntegerArguments:
    def test_is_prime(self):
        # 7.0 used to be called prime
        with pytest.raises(InvalidInputError, match="7.0"):
            is_prime(7.0)
        assert is_prime(True) is False

    def test_factorize(self):
        with pytest.raises(InvalidInputError, match="12.0"):
            factorize(12.0)


class TestMillerRabin:
    def test_agrees_with_trial_division(self):
        flags = bytearray([0, 0]) + bytearray([1]) * (2**20 - 2)
        for d in range(2, 2**10):
            if flags[d]:
                flags[d * d :: d] = bytes(len(range(d * d, 2**20, d)))
        assert [m for m in range(2**20) if is_prime(m)] == [m for m in range(2**20) if flags[m]]
        # below 2**40 a composite has a prime factor below 2**20
        primes = [d for d in range(2**20) if flags[d]]
        rng = random.Random(1108)
        for _ in range(400):
            m = rng.randrange(2**20, 2**40) | 1
            assert is_prime(m) == all(m % d for d in primes if d * d <= m), m

    def test_mersenne_prime_past_trial_division(self):
        assert is_prime(2**61 - 1)
        assert p_part(3 * (2**61 - 1) ** 2, 2**61 - 1) == (2**61 - 1) ** 2
        # 193707721 * 761838257287: composite, though factoring it stays refused
        assert not is_prime(2**67 - 1)
        with pytest.raises(ResourceLimitError):
            factorize(2**67 - 1)

    @pytest.mark.parametrize(
        "m, factors",
        [
            (3215031751, (151, 751, 28351)),  # strong pseudoprime to bases 2, 3, 5 and 7
            (3825123056546413051, (149491, 747451, 34233211)),  # to every prime base up to 31
            (318665857834031151167461, (399165290221, 798330580441)),  # to the first 12 primes
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, m, factors):
        assert math.prod(factors) == m
        assert not is_prime(m)


class TestPPart:
    def test_paper_style_entries(self):
        # the 2-content of (1,2,3,4) is (1,2,1,4)
        assert p_part(2, 2) == 2
        assert p_part(3, 2) == 1

    def test_twelve_at_three(self):
        assert p_part(12, 3) == 3
        m = 12
        q = 1
        while m % 3 == 0:
            m //= 3
            q *= 3
        assert q == 3

    def test_rejects_non_prime(self):
        with pytest.raises(InvalidInputError):
            p_part(12, 4)
        with pytest.raises(InvalidInputError):
            p_part(12, 1)

    def test_integer_arguments_only(self):
        # p = 2.0 used to give 4.0
        for m, p, bad in ((12, 2.0, "2.0"), (12.0, 2, "12.0"), (12, "2", "'2'")):
            with pytest.raises(InvalidInputError, match=bad):
                p_part(m, p)

    def test_quotient_coprime(self):
        for m in (1, 7, 48, 972, 10**6):
            for p in (2, 3, 5):
                q = p_part(m, p)
                assert m % q == 0 and (m // q) % p != 0

    @given(st.integers(1, 10**4), st.integers(1, 10**4), st.sampled_from((2, 3, 5, 7, 11)))
    def test_multiplicative(self, a, b, p):
        assert p_part(a * b, p) == p_part(a, p) * p_part(b, p)


class TestPLocal:
    def test_unit_examples(self):
        assert is_p_local_unit(Fraction(5, 3), {2}) is True
        assert is_p_local_unit(Fraction(2, 1), {2}) is False

    def test_not_an_element(self):
        with pytest.raises(NotPLocalError):
            is_p_local_unit(Fraction(3, 2), {2})

    def test_membership_helper(self):
        assert is_p_local(Fraction(5, 3), {2})
        assert not is_p_local(Fraction(3, 2), {2})

    def test_prime_set_validation(self):
        with pytest.raises(InvalidInputError):
            as_prime_set({2, 9})

    def test_units_multiply(self):
        rng = random.Random(11)
        for _ in range(300):
            P = frozenset(rng.sample(SMALL_PRIMES, rng.randint(1, 6)))
            us = []
            while len(us) < 2:
                x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                if x == 0 or not is_p_local(x, P):
                    continue
                if is_p_local_unit(x, P):
                    us.append(x)
            assert is_p_local_unit(us[0] * us[1], P)


class TestUnitSplit:
    def test_examples(self):
        assert unit_split(Fraction(6, 5), {2, 3}) == (Fraction(1, 5), Fraction(6))
        assert unit_split(Fraction(1), {2, 3}) == (Fraction(1), Fraction(1))
        assert unit_split(Fraction(-4, 9), {2}) == (Fraction(-1, 9), Fraction(4))

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            unit_split(Fraction(0), {2})

    def contract(self, x, P):
        u, v = unit_split(x, P)
        assert u * v == x
        assert v > 0
        assert (u < 0) == (x < 0)
        # u avoids P entirely, v is supported inside P
        for p in P:
            assert u.numerator % p and u.denominator % p
        for p in trial_factor(v.numerator) | trial_factor(v.denominator):
            assert p in P
        assert is_p_local_unit(u, P)
        return u, v

    def test_contract_random(self):
        rng = random.Random(20240601)
        for _ in range(500):
            x = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            P = frozenset(rng.sample(SMALL_PRIMES, rng.randint(1, 8)))
            self.contract(x, P)

    def test_uniqueness_by_reconstruction(self):
        # rebuild the split directly from the factorizations and compare
        rng = random.Random(77)
        for _ in range(300):
            x = Fraction(rng.randint(-9999, 9999) or 3, rng.randint(1, 9999))
            P = frozenset(rng.sample(SMALL_PRIMES, rng.randint(1, 5)))
            num_in = math.prod(p**e for p, e in trial_factor(abs(x.numerator)).items() if p in P)
            den_in = math.prod(p**e for p, e in trial_factor(x.denominator).items() if p in P)
            v = Fraction(num_in, den_in)
            u = x / v
            assert unit_split(x, P) == (u, v)

    @given(
        st.fractions(
            min_value=Fraction(-(10**4)), max_value=Fraction(10**4), max_denominator=10**4
        ).filter(lambda x: x != 0),
        st.frozensets(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6),
    )
    def test_contract_hypothesis(self, x, P):
        self.contract(x, P)

    @given(
        st.builds(
            lambda m, ps: m * math.prod(ps),
            st.integers(-(2**80), 2**80).filter(bool),
            st.lists(st.sampled_from(SPLIT_PRIMES), max_size=8),
        ).flatmap(
            lambda num: st.one_of(
                st.just(num),
                st.builds(
                    lambda m, ps: Fraction(num, m * math.prod(ps)),
                    st.integers(1, 2**80),
                    st.lists(st.sampled_from(SPLIT_PRIMES), max_size=8),
                ),
            )
        ),
        st.frozensets(st.sampled_from(SPLIT_PRIMES), max_size=6),
    )
    def test_matches_prime_by_prime_split(self, x, P):
        # one division by the P-supported part gives what dividing out each prime gave
        u, v = unit_split(x, P)
        assert (type(u), type(v)) == (Fraction, Fraction)
        assert (u, v) == split_prime_by_prime(x, P)


class TestRationalArguments:
    def test_floats_refused(self):
        # unit_split(0.1, {2}) used to split the float's binary fraction, and
        # is_p_local_unit(0.5, {3}) to answer True
        for call in (lambda: unit_split(0.1, {2}), lambda: is_p_local_unit(0.5, {3}), lambda: is_p_local(0.5, {3})):
            with pytest.raises(InvalidInputError, match="^x, unless a Fraction, must be an integer"):
                call()

    def test_strings_refused_unparsed(self):
        # Fraction("1e40000") used to take seconds, quadratic in the exponent
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="1e40000"):
            unit_split("1e40000", {2, 5})
        assert time.perf_counter() - start < 0.01


def _census_limit(x):
    assume(x is not None)  # None asks for the default limit
    return census(1, 3, limit=x)


# every public integer parameter: the name its refusal starts with, and a call putting x there
INTEGER_PARAMETERS = [
    ("m", factorize),
    ("m", is_prime),
    ("m", lambda x: p_part(x, 2)),
    ("prime", lambda x: p_part(12, x)),
    ("prime", lambda x: as_prime_set([2, x])),
    ("prime", lambda x: p_content((1, 2), x)),
    ("prime", lambda x: p_coprime_parts((1, 2), x)),
    ("group order k", lambda x: lens_cohomology(x, (1, 2))),
    ("divisor d", lambda x: divisor_count((1, 2), x)),
    ("divisor d", lambda x: singular_subspace((1, 2), x)),
    ("dimension", lambda x: census(x, 3)),
    ("max_weight", lambda x: census(1, x)),
    ("limit", _census_limit),
    ("workers", lambda x: census(1, 3, workers=x)),
    ("max_weight", lambda x: reconstruct_weights({1: 1}, x)),
    ("counts[2]", lambda x: reconstruct_weights({1: 2, 2: x}, 2)),
    ("n", lambda x: RingPresentation(x, (1, 2), {(0, 0): 1, (0, 1): 1})),
    ("pullback", lambda x: RingPresentation(1, (1, x), {(0, 0): 1, (0, 1): 1})),
    ("constants", lambda x: RingPresentation(1, (1, 2), {(0, 0): x, (0, 1): 1})),
    ("weights", lambda x: normalize((1, x))),
    ("support indices", lambda x: stratum_chart((1, 2), (0, x))),
]
RATIONAL_PARAMETERS = [
    ("x, unless a Fraction,", lambda x: unit_split(x, {2})),
    ("x, unless a Fraction,", lambda x: is_p_local(x, {2})),
    ("x, unless a Fraction,", lambda x: is_p_local_unit(x, {2})),
]
numeric_strings = st.one_of(
    st.integers().map(str),
    st.floats().map(str),
    st.fractions().map(str),
    st.integers(0, 10**5).map(lambda e: f"1e{e}"),
)
not_rationals = st.one_of(st.floats(), numeric_strings, st.none())
not_integers = st.one_of(not_rationals, st.fractions().filter(lambda x: x.denominator != 1))


class TestArgumentRule:
    """Every integer argument is converted by ``operator.index``, every rational one is an int or a Fraction."""

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.tuples(st.sampled_from(INTEGER_PARAMETERS), not_integers),
            st.tuples(st.sampled_from(RATIONAL_PARAMETERS), not_rationals),
        )
    )
    def test_refused_by_name(self, case):
        (name, call), x = case
        with pytest.raises(InvalidInputError) as info:
            call(x)
        assert str(info.value).startswith(f"{name} must be ")
