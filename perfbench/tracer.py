"""Per-layer counters recorded from outside wproj by wrapping its functions.

Each wrapped function gets a call count, inclusive time and self time (its
own duration minus the time spent in wrapped callees).  Functions are
wrapped at every name their callers look up, because several modules
import helpers by name (``_kernels_py.normalize``, ``weights.factorize``).
Spans are aggregated in memory and returned as one dict at the end; spans
recorded in forked census workers stay in those workers and are lost.

``light`` wraps only the once-per-command layers (argument parsing, the
census call and JSON serialization), so its overhead is negligible; ``full``
wraps every layer down to ``numth``.
"""

from __future__ import annotations

import json
import time
from functools import update_wrapper

# (metric name, module, attribute); the first module's function is wrapped
# and the wrapper is installed wherever the same object is bound.
LIGHT = [
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("classify.census", "classify", "census"),
]
FULL = LIGHT + [
    ("kernel.canonical_pair", "_backend", "canonical_pair"),
    ("kernel.pure", "_kernels_py", "canonical_pair"),
    ("classify.homeo_canonical_form", "classify", "homeo_canonical_form"),
    ("classify.homotopy_canonical_form", "classify", "homotopy_canonical_form"),
    ("classify.homeomorphic", "classify", "homeomorphic"),
    ("classify.homotopy_equivalent", "classify", "homotopy_equivalent"),
    ("weights.normalize", "weights", "normalize"),
    ("weights.normalize_with_moves", "weights", "normalize_with_moves"),
    ("weights.divisor_chain_form", "weights", "divisor_chain_form"),
    ("weights.p_content_table", "weights", "p_content_table"),
    ("weights.prime_support", "weights", "prime_support"),
    ("numth.factorize", "numth", "factorize"),
    ("numth.is_prime", "numth", "is_prime"),
    ("numth.p_part", "numth", "p_part"),
    ("cohom.ring", "cohom", "ring"),
    ("cohom.pullback_coefficients", "cohom", "pullback_coefficients"),
    ("cohom.lens_cohomology", "cohom", "lens_cohomology"),
    ("cohom.additive_cohomology", "cohom", "additive_cohomology"),
]
MODULES = ("cli", "classify", "cohom", "numth", "weights", "_backend", "_kernels_py")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.factorized: set[int] = set()
        self.json_bytes = 0
        self.missing: list[str] = []
        self._stack = [0.0]  # time spent in wrapped callees, per open frame

    def _wrap(self, name, fn, on_call=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                stack[-1] += elapsed

        return update_wrapper(wrapper, fn)

    def install(self, mode: str) -> None:
        """Wrap wproj's layers in place; ``mode`` is "light" or "full"."""
        import importlib

        modules = {}
        for m in MODULES:
            try:
                modules[m] = importlib.import_module(f"wproj.{m}")
            except ImportError:
                self.missing.append(f"wproj.{m}")
        for name, owner, attr in LIGHT if mode == "light" else FULL:
            fn = getattr(modules.get(owner), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            on_call = self._record_factorize if name == "numth.factorize" else None
            wrapped = self._wrap(name, fn, on_call)
            for module in modules.values():
                for key, val in list(vars(module).items()):
                    if val is fn:
                        setattr(module, key, wrapped)
        dumps = json.dumps

        def counted(*args, **kwargs):
            text = dumps(*args, **kwargs)
            self.json_bytes += len(text)
            return text

        json.dumps = self._wrap("cli.json_dumps", update_wrapper(counted, dumps))

    def _record_factorize(self, args) -> None:
        self.factorized.add(args[0])

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "factorize_distinct": len(self.factorized),
            "json_bytes": self.json_bytes,
            "missing": self.missing,
        }
