"""Shared test helpers: box enumeration, golden record files and independent oracles.

The oracles here deliberately avoid the library code paths they are used to
check: factoring is re-done by trial division, normalization is re-done by
deterministic and by randomized rewriting, the multiplier sequence is
re-done without any factoring by :func:`subset_lcm_sequence` (lcm of subset
products), and the P-local unit split by :func:`split_prime_by_prime`.
:func:`table_normalize_with_moves` keeps the move log as it was once read
off a valuation table of every weight, to check the leave-one-out route.
"""

import hashlib
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, zip_longest
from pathlib import Path
from typing import Iterable

from wproj.weights import _valuations, as_weights, normalize

GOLDEN = Path(__file__).with_name("golden")


def golden_lines(records):
    """One line per (label, outcome, text) record: its index, its outcome and 16 hex digits of its text's SHA-256."""
    return [f"{i} {outcome} {hashlib.sha256(text).hexdigest()[:16]}" for i, (_, outcome, text) in enumerate(records)]


def _moved(name, records):
    """(index, label, old line, new line) of each record whose line differs from ``golden/<name>``; a missing line is None."""
    expected = (GOLDEN / name).read_text().splitlines()
    return [
        (i, records[i][0] if i < len(records) else "(no record)", old, new)
        for i, (old, new) in enumerate(zip_longest(expected, golden_lines(records)))
        if old != new
    ]


def golden_mismatches(name, records):
    """Each record whose line differs from ``golden/<name>``, by index and label; a record missing on one side differs."""
    return [f"{i} {label}: expected {old!r}, got {new!r}" for i, label, old, new in _moved(name, records)]


def golden_digest(records):
    """SHA-256 hex digest of every record's text, in order: what each ``DIGEST`` pins."""
    digest = hashlib.sha256()
    for _, _, text in records:
        digest.update(text)
    return digest.hexdigest()


def write_golden(name, records):
    """Rewrite ``golden/<name>`` from the records; one line per record that moved: index, label, old -> new outcome."""
    moved = _moved(name, records)
    (GOLDEN / name).write_text("".join(line + "\n" for line in golden_lines(records)))

    def outcome(line):
        return line.split()[1] if line else "(none)"

    return [f"{i} {label}: {outcome(old)} -> {outcome(new)}" for i, label, old, new in moved]


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


def table_normalize_with_moves(weights):
    """The move log read off a valuation table of the weights; returns (vector, moves).

    After the gcd is divided out, unfactored, each prime p in ascending order
    adds as many reduce moves as its second-smallest valuation, all fixing
    the one weight p does not divide.  Refuses what the table refuses.
    """
    w = as_weights(weights)
    moves = []
    g = math.gcd(*w)
    if g > 1:
        w = tuple(x // g for x in w)
        moves.append(("scale", g))
    for p, column in sorted(_valuations(w).items()):
        # with the gcd gone every column holds a 0; a single weight is now (1,) and has none
        moves += [("reduce", p, column.index(0))] * sorted(column)[1]
    return normalize(w), moves


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
