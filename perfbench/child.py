"""Subprocess entry points of the benchmark.

    child.py census --trace light|full -- <wproj census argv>
        Runs ``wproj.cli.main`` on the argv with the tracer installed; the
        report goes to stdout, the trace to the last stderr line.
    child.py queries --seed N (--seconds T | --count N) [--trace full]
        Runs the seeded query stream in-process, closed loop, one client.
        Prints one JSON line per query and a summary line.
    child.py probe --seed N [--box DIM MAX_WEIGHT]
        Reports the active backend; under the compiled kernel it also checks
        that the compiled and pure kernels agree on a seeded sample.

wproj only ever sees generated argv; the seed stays in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
import traceback

from tracer import Tracer

TRACE_PREFIX = "PERFBENCH_TRACE "
_dumps = json.dumps  # the tracer replaces json.dumps; keep our own output out of it


def _census(args) -> int:
    tracer = Tracer()
    tracer.install(args.trace)
    from wproj import cli

    rc = cli.main(args.argv)
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + _dumps(tracer.summary()) + "\n")
    return rc


def _run_query(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed query, not a stopped stream
        rc = 1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def _queries(args) -> int:
    import querygen

    tracer = Tracer()
    if args.trace:
        tracer.install("full")
    from wproj import cli

    stream = iter(querygen.QueryStream(args.seed))
    real_stdout = sys.stdout
    done, wall = 0, 0.0
    while (args.count is None or done < args.count) and (args.seconds is None or wall < args.seconds):
        # the stream's time is the time spent serving queries, without
        # generating them or passing the outputs on to the checker
        query = next(stream)
        rc, out, err, elapsed = _run_query(cli.main, query.argv)
        real_stdout.write(_dumps({"rc": rc, "out": out, "err": err, "s": elapsed}) + "\n")
        wall += elapsed
        done += 1
    summary = {"done": done, "wall_s": wall}
    if args.trace:
        summary["trace"] = tracer.summary()
    real_stdout.write(_dumps(summary) + "\n")
    return 0


def _probe(args) -> int:
    import wproj
    from wproj import _kernels_py

    report = {"backend": wproj.backend_name(), "checked": 0, "mismatches": []}
    if report["backend"] == "cython":
        from wproj import _kernels_cy

        rng = random.Random(args.seed)
        if args.box:
            dim, max_weight = args.box
            vectors = [tuple(sorted(rng.randint(1, max_weight) for _ in range(dim + 1))) for _ in range(400)]
        else:
            import querygen

            vectors = [
                tuple(int(x) for x in arg.split(","))
                for query in querygen.QueryStream(args.seed).take(100)
                for arg in query.argv[1:]
                if "," in arg
            ]
        for v in vectors:
            try:
                fast = _kernels_cy.canonical_pair(v)
            except OverflowError:
                continue  # outside the compiled kernel's range; the pure path serves it
            report["checked"] += 1
            if fast != _kernels_py.canonical_pair(v):
                report["mismatches"].append(list(v))
    print(_dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark subprocess entry points")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("census")
    p.add_argument("--trace", choices=("light", "full"), required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("queries")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("probe")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--box", type=int, nargs=2)
    args = parser.parse_args(argv)
    if args.mode == "census":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _census(args)
    if args.mode == "queries":
        return _queries(args)
    return _probe(args)


if __name__ == "__main__":
    sys.exit(main())
