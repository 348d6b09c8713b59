"""Exact integer and rational arithmetic helpers.

Factorizations are plain ``dict[int, int]`` (prime -> exponent, ascending
keys, empty dict = 1).  Rationals are ``fractions.Fraction``, which already
guarantees lowest terms and a positive denominator.  Prime sets are
``frozenset[int]``.  Everything here is a pure function on immutable values
and safe to call concurrently.

Factoring and primality testing are trial division up to
``TRIAL_DIVISION_BOUND`` (2**20): first by the primes below 2**16, sieved once
at import, then by every odd number past them.  An odd composite past the
sieve never divides, since its prime factors were divided out before it, so
every entry below 2**32 is served from the prime table.  That settles every
integer below 2**40 and, more generally, every product of primes up to the
bound and at most one larger prime below 2**40.  When a cofactor above ``TRIAL_DIVISION_BOUND**2``
is left without a known divisor, :class:`ResourceLimitError` is raised
instead of searching on; there is deliberately no large-integer factoring
machinery here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import isqrt
from typing import Iterable, Iterator

from .errors import InvalidInputError, NotPLocalError, ResourceLimitError

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


def _trial_divisors():
    return chain(_SMALL_PRIMES, range(_SIEVE_BOUND + 1, TRIAL_DIVISION_BOUND + 1, 2))


def _over_bound(m: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"{m} may have a prime factor above the trial-division bound {TRIAL_DIVISION_BOUND}",
        required=m,
        limit=TRIAL_DIVISION_BOUND**2,
    )


def _scan(m: int) -> Iterator[tuple[int, int]]:
    """(prime, exponent) pairs of m >= 1 in ascending order, found lazily."""
    n = m
    for d in _trial_divisors():
        if d * d > m:
            break
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
    """Deterministic primality test by bounded trial division.

    Raises :class:`ResourceLimitError` for an m above ``TRIAL_DIVISION_BOUND**2``
    with no divisor up to the bound.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    # the scan stops at the smallest prime factor
    return m >= 2 and next(_scan(m)) == (m, 1)


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
    if m < 1:
        raise InvalidInputError(f"cannot factorize {m}: positive integer required")
    return dict(_factor_pairs(m))


def p_part(m: int, p: int) -> int:
    """Largest power of the prime p dividing m.

    >>> p_part(12, 2), p_part(12, 3), p_part(12, 5)
    (4, 3, 1)
    """
    if m < 1:
        raise InvalidInputError(f"p_part undefined for {m}: positive integer required")
    if not is_prime(p):
        raise InvalidInputError(f"p_part needs a prime, got {p}")
    return _p_power(m, p)


def _p_power(m: int, p: int) -> int:
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


def as_prime_set(primes: Iterable[int]) -> frozenset[int]:
    """Validate an explicit enumeration of primes."""
    ps = frozenset(primes)
    for p in ps:
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
    return ps


def is_p_local(x: Fraction | int, primes: Iterable[int]) -> bool:
    """Whether x lies in Z_P, i.e. its denominator avoids every prime of P."""
    ps = as_prime_set(primes)
    den = Fraction(x).denominator
    return all(den % p for p in ps)


def is_p_local_unit(x: Fraction | int, primes: Iterable[int]) -> bool:
    """Whether a P-local rational is a unit of Z_P (numerator also avoids P).

    Raises :class:`NotPLocalError` if x is not P-local in the first place.
    """
    ps = as_prime_set(primes)
    x = Fraction(x)
    if any(x.denominator % p == 0 for p in ps):
        raise NotPLocalError(f"{x} is not P-local for P={sorted(ps)}")
    return x.numerator != 0 and all(x.numerator % p for p in ps)


def unit_split(x: Fraction | int, primes: Iterable[int]) -> tuple[Fraction, Fraction]:
    """Split a nonzero rational as u*v with u coprime to P and v supported on P.

    u carries the sign of x and is a unit in Z_P; v is positive, its numerator
    and denominator are products of primes from P only, so v is a unit in Z_Q
    for any prime set Q disjoint from P.  The pair is unique.

    >>> unit_split(Fraction(6, 5), {2, 3})
    (Fraction(1, 5), Fraction(6, 1))
    >>> unit_split(Fraction(-4, 9), {2})
    (Fraction(-1, 9), Fraction(4, 1))
    """
    ps = as_prime_set(primes)
    x = Fraction(x)
    if x == 0:
        raise InvalidInputError("cannot unit-split 0")

    def split(m: int) -> tuple[int, int]:
        inside = 1
        for p in ps:
            q = _p_power(m, p)  # ps was validated by as_prime_set
            inside *= q
            m //= q
        return m, inside  # (coprime-to-P part, P-supported part)

    num_out, num_in = split(abs(x.numerator))
    den_out, den_in = split(x.denominator)
    sign = 1 if x > 0 else -1
    u = Fraction(sign * num_out, den_out)
    v = Fraction(num_in, den_in)
    return u, v
