"""One workload process of the sweep or flags workload.

    python3 bench/worker.py {sweep|flags} [--setup-only] [--trace-file PATH]

run.py starts it with PYTHONPATH pointing at the checkout's src/. The worker
imports schubcells, makes the first use of every group or size the workload
touches, and prints "ready". With --setup-only it then exits. Otherwise it
reads the op list (one JSON line) from stdin, runs every op, checks every
output outside the timed region, and prints one JSON line of results.

After the import, between set-up ops and every BLOCK ops it prints "mark"
and waits for a line on stdin, so that run.py can sample its calibration job
(calibrate.py) while this process is idle.

Only names exported from schubcells are used, so the package's internals
can change without touching the benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import schubcells as sc
from benchlib import BLOCK, FLAG_SIZES, SWEEP_GROUPS, NullTracer, Tracer


# ----- sweep ------------------------------------------------------------------

def _describe(g, w):
    if g.type_letter == "A":
        return sc.cell_description_typeA(g, w)
    if g.type_letter == "D":
        return sc.cell_description_typeD(g, w)
    return sc.cell_description_economical(g, w)


def sweep_op(tr, op):
    """String -> cell -> description: the paper's path, one call per layer."""
    g = sc.weyl_group(op["group"])
    w = tr.call("weyl.element", g.element, tuple(op["word"]))
    pattern = tr.call("patterns.random_acceptable", sc.random_acceptable, g, w, op["pattern_seed"])
    report = tr.call("patterns.check_acceptable", sc.check_acceptable, pattern)
    v, log = tr.call("recognition.recognize_general", sc.recognize_general,
                     sc.PatternOracle(pattern), g)
    desc = tr.call("cells.describe", _describe, g, w)
    holds = tr.call("cells.verify_description", sc.verify_description, desc, pattern)
    return g, w, report, v, log, desc, holds


def sweep_check(result) -> tuple[str | None, dict]:
    g, w, report, v, log, desc, holds = result
    counts = {"queries": log.count, "equalities": len(desc.equalities),
              "inequalities": len(desc.inequalities)}
    if not report.accepted or report.witness != w:
        return f"check_acceptable: {report.failure_reason}", counts
    if v != w:
        return "recognize_general returned another element", counts
    if not holds:
        return "verify_description failed on the string", counts
    if g.type_letter != "D" and len(desc.equalities) != len(g.positive_roots()) - w.length:
        return "equality count is not |Phi+| - l(w)", counts
    return None, counts


def sweep_warmups():
    for cls in SWEEP_GROUPS.values():
        for spec, (rank, _npos) in cls.items():
            yield spec, {"group": spec, "word": list(range(1, rank + 1)) * 2, "pattern_seed": 0}


def sweep_groups():
    return [sc.weyl_group(spec) for cls in SWEEP_GROUPS.values() for spec in cls]


# ----- flags ------------------------------------------------------------------

class SpanOracle:
    """Puts a span around each oracle query, so flag minors evaluated inside
    recognition show up as its child spans."""

    def __init__(self, tracer, inner):
        self.tracer = tracer
        self.inner = inner

    def query(self, pw):
        return self.tracer.call("flags.FlagOracle.query", self.inner.query, pw)


def flags_op(tr, op):
    """A fresh exact flag of a random cell, recognized and read off."""
    n, w = op["n"], tuple(op["w"])
    x = tr.call("flags.random_cell_point", sc.random_cell_point, w, op["point_seed"])
    flag = tr.call("flags.Flag", sc.Flag, x.matrix)
    oracle = SpanOracle(tr, sc.FlagOracle(flag))
    perm, log = tr.call("recognition.recognize_typeA", sc.recognize_typeA, oracle, n)
    pattern = tr.call("flags.vanishing_pattern", sc.vanishing_pattern, flag)
    return n, w, perm, log, pattern


def flags_check(result) -> tuple[str | None, dict]:
    n, w, perm, log, pattern = result
    counts = {"queries": log.count}
    if perm != w:
        return "recognize_typeA returned another permutation", counts
    if log.count > n * (n - 1) // 2:
        return f"{log.count} queries exceed n(n-1)/2", counts
    g = sc.type_a_group(n)
    if pattern != sc.generic_pattern(g, g.from_one_line(w)):
        return "vanishing_pattern differs from the generic pattern", counts
    return None, counts


def flags_warmups():
    for n in FLAG_SIZES:
        yield f"n{n}", {"n": n, "w": list(range(n, 0, -1)), "point_seed": 0}


def flags_groups():
    return [sc.type_a_group(n) for n in FLAG_SIZES]


WORKLOADS = {
    "sweep": (sweep_op, sweep_check, sweep_warmups, sweep_groups),
    "flags": (flags_op, flags_check, flags_warmups, flags_groups),
}


def mark():
    print("mark", flush=True)
    sys.stdin.readline()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    run_op, check, warmups, groups = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace_file else NullTracer()
    mark()

    # Set-up: the first use of every group or size, which builds every lazy
    # table the ops read.
    warm = []
    for key, op in warmups():
        if warm:
            mark()
        tracer.op = f"warm:{key}"
        warm.append(run_op(tracer, op))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Tables only the output checks read are built here, outside both the
    # set-up and the timed phase.
    warm_errors = [error for error, _ in map(check, warm) if error]

    ops = json.loads(sys.stdin.readline())
    latencies, counts, errors = [], [], []
    clock = time.perf_counter_ns
    for k, op in enumerate(ops):
        if k % BLOCK == 0:
            mark()
        tracer.op = k
        start = clock()
        try:
            result = run_op(tracer, op)
        except Exception as exc:  # an op that raises counts as failed
            result, error, c = None, f"{type(exc).__name__}: {exc}", {}
        latencies.append(clock() - start)
        if result is not None:
            try:
                error, c = check(result)
            except Exception as exc:
                error, c = f"check raised {type(exc).__name__}: {exc}", {}
        counts.append(c)
        errors.append(error)

    if args.trace_file:
        tracer.dump(args.trace_file, workload=args.workload,
                    warm=[key for key, _ in warmups()])
    # Read after the timed phase, so reading them cannot build anything early.
    sizes = {
        g.datum.name: {"order": len(g), "orbits": [len(sc.orbit(g, i)) for i in range(1, g.rank + 1)]}
        for g in groups()
    }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"latencies_ns": latencies, "counts": counts, "errors": errors,
                      "warm_errors": warm_errors, "rss_kb": rss_kb, "groups": sizes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
