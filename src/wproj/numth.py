"""Exact integer and rational arithmetic helpers.

Factorizations are plain ``dict[int, int]`` (prime -> exponent, ascending
keys, empty dict = 1).  Integers go through ``_integer``; a rational is an
``int`` or a ``fractions.Fraction``, never a float or a string.  Prime sets
are ``frozenset[int]``.  Everything here is a pure function on immutable
values and safe to call concurrently.

Factoring is trial division up to ``TRIAL_DIVISION_BOUND`` (2**20): first by
the primes below 2**16, sieved once at import, then by every odd number past
them.  The primes are tried in blocks of 64 whose products are also taken at
import: one ``gcd`` with a block's product passes over a block holding no
divisor.  An odd composite past the sieve never divides, since its prime
factors were divided out before it, so every entry below 2**32 is served from
the prime table.  That settles every integer below 2**40 and, more generally,
every product of primes up to the bound and at most one larger prime below
2**40.  When a cofactor above ``TRIAL_DIVISION_BOUND**2`` is left without a
known divisor, :class:`ResourceLimitError` is raised instead of searching on;
there is deliberately no large-integer factoring machinery here.  Primality
is Miller-Rabin to the first 13 prime bases, a proof below
3,317,044,064,679,887,385,961,981 (Sorenson-Webster 2017).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InvalidInputError, NotPLocalError, ResourceLimitError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "factorize",
    "is_prime",
    "p_part",
    "as_prime_set",
    "is_p_local",
    "is_p_local_unit",
    "unit_split",
    "TRIAL_DIVISION_BOUND",
]

TRIAL_DIVISION_BOUND = 1 << 20
_SIEVE_BOUND = 1 << 16


def _sieve(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), flags))


_SMALL_PRIMES = _sieve(_SIEVE_BOUND)
_BLOCK = 64
# (divisors, their product) in ascending order; the odd numbers past the sieve
# come last with product 0, which no m > 1 is coprime to, so they are never
# passed over
_TRIAL_BLOCKS = tuple(
    (_SMALL_PRIMES[i : i + _BLOCK], prod(_SMALL_PRIMES[i : i + _BLOCK]))
    for i in range(0, len(_SMALL_PRIMES), _BLOCK)
) + ((range(_SIEVE_BOUND + 1, TRIAL_DIVISION_BOUND + 1, 2), 0),)


def _integer(x: int, what: str, least: int | None = None) -> int:
    """``x`` as an int by ``operator.index``, refused below ``least`` (0 or 1): a float, string or fraction is refused."""
    try:
        x = operator.index(x)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {x!r}") from None
    if least is not None and x < least:
        raise InvalidInputError(f"{what} must be {'positive' if least else 'nonnegative'}, got {x}")
    return x


def _rational(x: Fraction | int) -> Fraction | int:
    """``x`` itself if it is a ``Fraction``, else ``x`` by :func:`_integer`."""
    from fractions import Fraction  # imported here: it slows every start-up

    return x if isinstance(x, Fraction) else _integer(x, "x, unless a Fraction,")


def _over_bound(m: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"{m} may have a prime factor above the trial-division bound {TRIAL_DIVISION_BOUND}",
        required=m,
        limit=TRIAL_DIVISION_BOUND**2,
    )


def _scan(m: int) -> Iterator[tuple[int, int]]:
    """(prime, exponent) pairs of m >= 1 in ascending order, found lazily."""
    n = m
    for block, product in _TRIAL_BLOCKS:
        if block[0] * block[0] > m:
            break
        if gcd(m, product) == 1:
            continue
        for d in block:
            if d * d > m:
                break  # the next block's first divisor stops the scan
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                yield d, e
    # a cofactor this large means every divisor up to the bound was tried
    # and m may still be a product of two primes above it
    if m > TRIAL_DIVISION_BOUND**2:
        raise _over_bound(n)
    if m > 1:
        yield m, 1


def is_prime(m: int) -> bool:
    """Deterministic primality test: Miller-Rabin to the bases 2, 3, ..., 41.

    Past 3,317,044,064,679,887,385,961,981 that is no proof, so an m with no
    divisor up to ``TRIAL_DIVISION_BOUND`` raises :class:`ResourceLimitError`
    carrying that bound as its ``limit``.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    m = _integer(m, "m")
    bound = 3_317_044_064_679_887_385_961_981  # Miller-Rabin to these bases is a proof below it
    if m >= bound:
        try:  # the scan stops at the smallest prime factor
            return next(_scan(m)) == (m, 1)
        except ResourceLimitError:
            raise ResourceLimitError(
                f"{m} has no divisor up to {TRIAL_DIVISION_BOUND}, and Miller-Rabin decides "
                f"primality only below {bound}",
                required=m,
                limit=bound,
            ) from None
    bases = _SMALL_PRIMES[:13]
    if m <= bases[-1]:
        return m in bases
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s with d odd
    d = (m - 1) >> s
    for a in bases:
        x = pow(a, d, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


# Fits every entry of a census in the default budget (dimension 1: up to 4471).
@lru_cache(maxsize=1 << 13)
def _factor_pairs(m: int) -> tuple[tuple[int, int], ...]:
    return tuple(_scan(m))


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of a positive integer, keys ascending.

    Raises :class:`ResourceLimitError` when a cofactor above
    ``TRIAL_DIVISION_BOUND**2`` has no divisor up to the bound.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorize(1)
    {}
    """
    return dict(_factor_pairs(_integer(m, "m", 1)))


def p_part(m: int, p: int) -> int:
    """Largest power of the prime p dividing m.

    >>> p_part(12, 2), p_part(12, 3), p_part(12, 5)
    (4, 3, 1)
    """
    m, [p] = _integer(m, "m", 1), as_prime_set([p])
    return _p_power(m, p)


def _p_power(m: int, p: int) -> int:
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


def as_prime_set(primes: Iterable[int]) -> frozenset[int]:
    """Validate an explicit enumeration of primes."""
    ps = frozenset(_integer(p, "prime") for p in primes)
    for p in ps:
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
    return ps


def is_p_local(x: Fraction | int, primes: Iterable[int]) -> bool:
    """Whether x lies in Z_P, i.e. its denominator avoids every prime of P."""
    ps = as_prime_set(primes)
    den = _rational(x).denominator
    return all(den % p for p in ps)


def is_p_local_unit(x: Fraction | int, primes: Iterable[int]) -> bool:
    """Whether a P-local rational is a unit of Z_P (numerator also avoids P).

    Raises :class:`NotPLocalError` if x is not P-local in the first place.
    """
    ps = as_prime_set(primes)
    x = _rational(x)
    if any(x.denominator % p == 0 for p in ps):
        raise NotPLocalError(f"{x} is not P-local for P={sorted(ps)}")
    return x.numerator != 0 and all(x.numerator % p for p in ps)


def unit_split(x: Fraction | int, primes: Iterable[int]) -> tuple[Fraction, Fraction]:
    """Split a nonzero rational as u*v with u coprime to P and v supported on P.

    u carries the sign of x and is a unit in Z_P; v is positive, its numerator
    and denominator are products of primes from P only, so v is a unit in Z_Q
    for any prime set Q disjoint from P.  The pair is unique.

    >>> from fractions import Fraction
    >>> unit_split(Fraction(6, 5), {2, 3})
    (Fraction(1, 5), Fraction(6, 1))
    >>> unit_split(Fraction(-4, 9), {2})
    (Fraction(-1, 9), Fraction(4, 1))
    """
    from fractions import Fraction  # imported here: it slows every start-up

    ps = as_prime_set(primes)
    x = _rational(x)
    if x == 0:
        raise InvalidInputError("cannot unit-split 0")
    # v is the P-supported part of numerator over that of denominator, and u = x / v
    v = Fraction(prod(_p_power(abs(x.numerator), p) for p in ps), prod(_p_power(x.denominator, p) for p in ps))
    return x / v, v
