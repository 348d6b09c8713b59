"""Shared test helpers: box enumeration and independent oracles.

The oracles here deliberately avoid the library code paths they are used to
check: factoring is re-done by trial division, normalization is re-done by
deterministic and by randomized rewriting, the multiplier sequence is
re-done without any factoring by :func:`subset_lcm_sequence` (lcm of subset
products), and the P-local unit split by :func:`split_prime_by_prime`.
"""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable

from wproj.weights import as_weights


def sorted_vectors(length, max_entry):
    """All non-decreasing weight vectors of one length with bounded entries."""
    return combinations_with_replacement(range(1, max_entry + 1), length)


def box(max_dim, max_entry):
    """All sorted weight vectors of dimension <= max_dim (length <= max_dim+1)."""
    for length in range(1, max_dim + 2):
        yield from sorted_vectors(length, max_entry)


def trial_factor(m):
    """Prime factorization by bare trial division (oracle)."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def first_primes(count):
    """The first ``count`` primes, by trial division against the smaller ones."""
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def primes_dividing(values):
    ps = set()
    for x in values:
        ps.update(trial_factor(x))
    return sorted(ps)


def applicable_moves(w):
    """All currently legal rewriting moves on a weight vector.

    ("scale", p): the prime p divides every entry; ("reduce", p, i): exactly
    one entry (index i) is coprime to p.
    """
    moves = []
    for p in primes_dividing(w):
        coprime = [i for i, x in enumerate(w) if x % p]
        if not coprime:
            moves.append(("scale", p))
        elif len(coprime) == 1:
            moves.append(("reduce", p, coprime[0]))
    return moves


def apply_move(w, move):
    if move[0] == "scale":
        p = move[1]
        return [x // p for x in w]
    p, keep = move[1], move[2]
    return [x if i == keep else x // p for i, x in enumerate(w)]


def randomized_normalize(w, rng):
    """Normalize by applying legal moves in random order; returns sorted tuple."""
    w = list(w)
    while True:
        moves = applicable_moves(w)
        if not moves:
            return tuple(sorted(w))
        w = apply_move(w, moves[rng.randrange(len(moves))])


def rewrite_normalize(weights):
    """Normalize by the deterministic rewriting loop; returns (vector, moves).

    Divides out the gcd first, then treats primes in ascending order,
    repeatedly dividing all weights but the unique p-coprime one by p until
    at least two weights are coprime to p.  One pass over the list per move.
    """
    w = list(as_weights(weights))
    moves = []
    g = math.gcd(*w)
    if g > 1:
        w = [x // g for x in w]
        moves.append(("scale", g))
    for p in primes_dividing(w):
        while len(coprime := [i for i, x in enumerate(w) if x % p]) == 1:
            keep = coprime[0]
            w = [x if i == keep else x // p for i, x in enumerate(w)]
            moves.append(("reduce", p, keep))
    return tuple(w), moves


def subset_lcm_sequence(weights: Iterable[int]) -> tuple[int, ...]:
    """Independent route to the multiplier sequence: lcm of i-subset products.

    Entry i is the lcm, over all i-element index subsets, of the product of
    the selected weights.  Exponential in the vector length; meant for
    cross-checking :func:`wproj.cohom.pullback_coefficients`, not for
    production use.

    >>> subset_lcm_sequence((1, 2, 3, 4))
    (1, 12, 24, 24)
    """
    w = as_weights(weights)
    n = len(w) - 1
    out = [1]
    for i in range(1, n + 1):
        out.append(math.lcm(*(math.prod(w[j] for j in sel) for sel in combinations(range(n + 1), i))))
    return tuple(out)


def split_prime_by_prime(x, primes):
    """Independent route to :func:`wproj.numth.unit_split` for nonzero x.

    Divides each prime of P out of the numerator and out of the denominator
    in turn, keeping what was divided out (v) apart from what is left (u),
    and gives u the sign of x.
    """
    x = Fraction(x)

    def split(m):
        inside = 1
        for p in primes:
            while m % p == 0:
                m //= p
                inside *= p
        return m, inside  # (coprime-to-P part, P-supported part)

    num_out, num_in = split(abs(x.numerator))
    den_out, den_in = split(x.denominator)
    sign = 1 if x > 0 else -1
    return Fraction(sign * num_out, den_out), Fraction(num_in, den_in)
