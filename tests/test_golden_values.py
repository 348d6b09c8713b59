"""Return values of every public library function, pinned by one digest.

Each function in a module's ``__all__``, and the validated ``RingPresentation``
constructor, is called on inputs drawn from a fixed seed.  The ``repr`` of
each result, or the type and message of each ``WprojError`` raised, goes into
one SHA-256, so a refactor that changes any value or refusal changes it.
``golden/values.txt`` holds one line per call, so a failure names the calls
that changed.  It was re-taken once the homeomorphism form was read off gcds:
four calls holding 2**61 - 1 (indices 36, 782, 954, 1054) then answer instead
of refusing, and no other call changed.  It was re-taken again once the move
log was read off the leave-one-out gcds: the ``normalize_with_moves`` call at
index 502, whose h_i are all 1, then answers with no moves, and no other call
changed.
The CLI has its own digest in ``test_cli.TestGoldenReports``.
"""

import inspect
import random
from fractions import Fraction

from wproj import classify, cohom, numth, strata, weights
from wproj.errors import WprojError

from helpers import golden_digest, golden_mismatches

MODULES = (classify, cohom, numth, strata, weights)
ENTRIES = (1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 30, 36, 64, 210, 65521, 65537, 3 * 1048573, 2**32 - 5, 3**40)
PRIMES = (2, 3, 5, 7, 65521, 2**61 - 1)
# each refused factoring runs the whole trial division, so these come rarely:
# 2**61 - 1 is past 2**40 with no divisor up to the bound, 10**30 + 57 also
# past the Miller-Rabin proof
UNFACTORED = (2**61 - 1, 10**30 + 57)


def vector(rng, valid=False):
    """A weight vector; an invalid one may hold a nonpositive or an unfactored entry."""
    w = [rng.choice(ENTRIES) for _ in range(rng.randrange(1, 6))]
    if not valid and rng.random() < 0.06:
        w[rng.randrange(len(w))] = rng.choice((0, -1, UNFACTORED[0]))
    return tuple(w)


def small_vector(rng):
    return tuple(rng.randrange(1, 13) for _ in range(rng.randrange(1, 5)))


def chain(rng):
    x, out = 1, []
    for _ in range(rng.randrange(1, 6)):
        x *= rng.choice((1, 1, 2, 3, 5))
        out.append(x)
    return tuple(out)


def integer(rng):
    if rng.random() < 0.02:
        return rng.choice(UNFACTORED)
    m = rng.choice((0, -3, 1)) if rng.random() < 0.1 else 1
    for _ in range(rng.randrange(4)):
        m *= rng.choice(ENTRIES)
    return m


def prime(rng):
    return rng.choice(PRIMES + (4, 1))


def prime_list(rng):
    ps = rng.sample(PRIMES, rng.randrange(4))
    if rng.random() < 0.1:
        ps.append(rng.choice((4, 1, -2)))
    return ps


def rational(rng):
    num = rng.randrange(-(2**70), 2**70) * rng.choice(PRIMES) ** rng.randrange(3)
    den = rng.randrange(1, 2**70) * rng.choice(PRIMES) ** rng.randrange(3)
    return Fraction(0) if rng.random() < 0.05 else rng.choice((Fraction(num, den), num))


def support(rng, w):
    """Indices into w: now and then none, or the out-of-range index len(w) among them."""
    if rng.random() < 0.1:
        return ()
    indices = range(len(w) + (rng.random() < 0.2))
    return tuple(rng.sample(indices, rng.randrange(1, len(indices) + 1)))


def presentation(rng):
    r = cohom.ring(vector(rng, valid=True))
    constants = dict(r.constants)
    if rng.random() < 0.3:
        key = rng.choice(sorted(constants))
        constants[key] += 1
    return r.n, r.pullback, constants


def counts(rng):
    w = small_vector(rng)
    m = max(w) + rng.randrange(3)
    c = {d: weights.divisor_count(w, d) for d in range(1, m + 1)}
    if rng.random() < 0.2:
        c[rng.randrange(1, m + 1)] += 1
    return c, m


DRAWS = {
    "homeo_canonical_form": lambda rng: (vector(rng),),
    "homotopy_canonical_form": lambda rng: (vector(rng),),
    "homeomorphic": lambda rng: (vector(rng), vector(rng)),
    "homotopy_equivalent": lambda rng: (vector(rng), vector(rng)),
    "census": lambda rng: (rng.randrange(-1, 3), rng.randrange(0, 7), rng.choice((None, None, 10, 100))),
    "pullback_coefficients": lambda rng: (vector(rng),),
    "RingPresentation": presentation,
    "ring": lambda rng: (vector(rng),),
    "additive_cohomology": lambda rng: (vector(rng),),
    "lens_cohomology": lambda rng: (rng.randrange(-1, 40), vector(rng)),
    "graded_ring_iso": lambda rng: (cohom.ring(vector(rng, True)), cohom.ring(vector(rng, True))),
    "factorize": lambda rng: (integer(rng),),
    "is_prime": lambda rng: (integer(rng) + rng.randrange(2),),
    "p_part": lambda rng: (integer(rng), prime(rng)),
    "as_prime_set": lambda rng: (prime_list(rng),),
    "is_p_local": lambda rng: (rational(rng), prime_list(rng)),
    "is_p_local_unit": lambda rng: (rational(rng), prime_list(rng)),
    "unit_split": lambda rng: (rational(rng), prime_list(rng)),
    "stratum_chart": lambda rng: (w := vector(rng), support(rng, w)),
    "local_homology_order": lambda rng: (
        w := weights.normalize(vector(rng, True)) if rng.random() < 0.7 else vector(rng),
        support(rng, w),
    ),
    "singular_subspace": lambda rng: (vector(rng), rng.randrange(13)),
    "cell_decomposition": lambda rng: (chain(rng) if rng.random() < 0.7 else vector(rng),),
    "as_weights": lambda rng: (vector(rng),),
    "parse_weights": lambda rng: (",".join(map(str, vector(rng))) + rng.choice(("", "", " ", ",", "x")),),
    "is_normalized": lambda rng: (vector(rng),),
    "normalize": lambda rng: (vector(rng),),
    "normalize_with_moves": lambda rng: (vector(rng),),
    "p_content": lambda rng: (vector(rng), prime(rng)),
    "p_content_table": lambda rng: (vector(rng),),
    "divisor_chain_form": lambda rng: (vector(rng),),
    "is_divisor_chain": lambda rng: (chain(rng) if rng.random() < 0.5 else vector(rng),),
    "divisor_count": lambda rng: (vector(rng), rng.randrange(13)),
    "reconstruct_weights": counts,
    "p_coprime_parts": lambda rng: (vector(rng), prime(rng)),
}
ROUNDS = 40
DIGEST = "dbad63ca9ba78dca86a134daf212d24009a42649be2c81f3e419b724c57679eb"


def public_callables():
    found = {}
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or value is cohom.RingPresentation:
                found[name] = value
    return found


def test_every_public_function_drawn():
    assert set(DRAWS) == set(public_callables())


def records():
    """(call, outcome, hashed text) of each drawn call; the outcome is "ok" or the type of the error raised."""
    functions = public_callables()
    rng = random.Random(20110908)
    out = []
    for _ in range(ROUNDS):
        for name, draw in DRAWS.items():
            args = draw(rng)
            try:
                outcome, kind = functions[name](*args), "ok"
            except WprojError as exc:
                outcome, kind = (type(exc).__name__, str(exc)), type(exc).__name__
            out.append((f"{name}{args!r}", kind, repr((name, args, outcome)).encode()))
    return out


def test_digest():
    found = records()
    # one line per call names each record that moved; the digest below covers every byte
    mismatches = golden_mismatches("values.txt", found)
    assert not mismatches, "\n".join(mismatches)
    assert golden_digest(found) == DIGEST
