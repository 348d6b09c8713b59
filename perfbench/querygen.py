"""Seeded stream of one-off CLI queries with known factorizations.

Every entry is built from primes chosen here, so the oracle never has to
factor it.  Entries stay below 2**32, the bound ``wproj.numth`` documents.
Vectors share small primes and large primes across most of their entries,
so normalization has reduction moves to make and factoring meets real
cofactors.  The mix is fixed per block of ten queries (5 compare,
3 invariants, 1 lens, 1 normalize, shuffled).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

ENTRY_LIMIT = 1 << 32
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# Trial division costs grow with the square root of the largest prime
# factor, so this range sets how much factoring work a query does.
LARGE_PRIME_BITS = range(14, 29)
BLOCK = ("compare",) * 5 + ("invariants",) * 3 + ("lens", "normalize")
LENGTHS = range(2, 9)


@dataclass(frozen=True)
class Query:
    kind: str
    argv: list[str]
    vectors: list[list[dict]]  # factorizations, one list per weight vector
    k: int = 0  # lens group order

    @property
    def vector_count(self) -> int:
        return len(self.vectors)


def _csv(fs: list[dict]) -> str:
    return ",".join(str(oracle.value(f)) for f in fs)


class QueryStream:
    """Infinite, deterministic query sequence for one seed.

    Vector length, large-prime size, compare partner type and lens order
    type cycle with the query index instead of being drawn at random; only
    the concrete primes and index sets come from the seed.  That keeps the
    work per query, and so the stream's cost, nearly the same for every seed.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.index = 0
        self.compares = 0
        self.lenses = 0

    def __iter__(self):
        while True:
            block = list(BLOCK)
            self.rng.shuffle(block)
            for kind in block:
                yield self._query(kind)
                self.index += 1

    def take(self, count: int) -> list[Query]:
        it = iter(self)
        return [next(it) for _ in range(count)]

    def _large_prime(self, bits: int) -> int:
        low = 1 << (bits - 1)
        n = self.rng.randrange(low, low + low // 8) | 1
        while not oracle.is_prime(n):
            n += 2
        return n

    @staticmethod
    def _add(f: dict, p: int, e: int) -> None:
        if oracle.value(f) * p**e < ENTRY_LIMIT:
            f[p] = f.get(p, 0) + e

    def _vector(self, length: int) -> list[dict]:
        rng = self.rng
        fs: list[dict] = [{} for _ in range(length)]
        bits = LARGE_PRIME_BITS[self.index % len(LARGE_PRIME_BITS)]
        shared = [(rng.choice(SMALL_PRIMES), rng.randint(1, 4), rng.random() < 0.5) for _ in range(2)]
        shared.append((self._large_prime(bits), 1, self.index % 2 == 0))
        for p, e, all_but_one in shared:
            if all_but_one:
                # all but one entry: normalization divides it out again
                skip = rng.randrange(length)
                members = [i for i in range(length) if i != skip]
            else:
                members = rng.sample(range(length), rng.randint(1, length))
            for i in members:
                self._add(fs[i], p, e)
        for f in fs:
            if rng.random() < 0.3:
                self._add(f, rng.choice(SMALL_PRIMES), 1)
        return fs

    def _partner(self, left: list[dict]) -> list[dict]:
        """A partner for compare: homeomorphic, homotopy equivalent, or neither."""
        rng = self.rng
        self.compares += 1
        kind = self.compares % 3
        if kind == 0:
            # permute, rescale and undo one reduction move: same homeo class
            right = [dict(f) for f in left]
            rng.shuffle(right)
            c = rng.choice(SMALL_PRIMES)
            coprime = [i for i, f in enumerate(right) if c not in f]
            # the inverse of a reduction multiplies all but a c-coprime entry
            keep = rng.choice(coprime) if coprime else -1
            if all(oracle.value(f) * c * c < ENTRY_LIMIT for f in right):
                for i, f in enumerate(right):
                    f[c] = f.get(c, 0) + (1 if i == keep else 2)
            return right
        chain = oracle.divisor_chain_factors(left)
        if kind == 1 and all(oracle.value(f) < ENTRY_LIMIT for f in chain):
            return chain
        return self._vector(len(left))

    def _query(self, kind: str) -> Query:
        fs = self._vector(LENGTHS[self.index % len(LENGTHS)])
        if kind == "compare":
            right = self._partner(fs)
            return Query(kind, [kind, _csv(fs), _csv(right)], [fs, right])
        if kind == "lens":
            self.lenses += 1
            if self.lenses % 3 == 0:
                k = self._large_prime(LARGE_PRIME_BITS[self.lenses % len(LARGE_PRIME_BITS)])
            else:
                k = 2 ** self.rng.randint(0, 5) * 3 ** self.rng.randint(0, 3)
            return Query(kind, [kind, str(k), _csv(fs)], [fs], k)
        return Query(kind, [kind, _csv(fs)], [fs])


def check(query: Query, report: dict) -> list[str]:
    """Oracle verdict on one query's parsed JSON report."""
    if query.kind == "compare":
        return oracle.check_compare(report, *query.vectors)
    if query.kind == "invariants":
        return oracle.check_invariants(report, query.vectors[0])
    if query.kind == "lens":
        return oracle.check_lens(report, query.k, query.vectors[0])
    return oracle.check_normalize(report, query.vectors[0])
