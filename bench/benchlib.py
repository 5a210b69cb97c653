"""Helpers shared by the benchmark command (run.py) and its worker (worker.py).

Nothing here imports schubcells: input generation must not depend on the
code under measurement, so the group data it needs is written out below.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time

# Sweep groups by size class: spec -> (rank, number of positive roots).
SWEEP_GROUPS = {
    "small": {"A4": (4, 10), "B4": (4, 16), "C4": (4, 16), "D4": (4, 12), "G2": (2, 6)},
    "large": {"A5": (5, 15), "B5": (5, 25), "D5": (5, 20)},
}
FLAG_SIZES = (6, 7, 8)

# Seed-code throughput (scaled as in calibrate.py) on a 2-core shared x86 VM,
# Python 3.11. The op count of a run is this rate times --seconds, so every
# commit gets exactly the same inputs.
SWEEP_OPS_PER_S = 130
FLAGS_OPS_PER_S = 80

# A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10
TAIL_Q = 0.99
MIN_TAIL_OPS = math.ceil(MIN_BEYOND / (1 - TAIL_Q))

BLOCK = 50  # sweep and flags ops between two samples of the calibration job

# cli-cold: (id, argv after `python -m schubcells.cli`), run in this order.
CLI_COMMANDS = (
    ("describe_B5", ("describe", "--group", "B5", "--w", "s1.s2")),
    ("describe_D5", ("describe", "--group", "D5", "--w", "s1.s3.s2")),
    ("describe_A6", ("describe", "--group", "A6", "--w", "2143657")),
    ("variety_B4", ("describe-variety", "--group", "B4", "--w", "s1.s2")),
    ("recognize_A6", ("--seed", "1", "recognize", "--group", "A6", "--cell", "3142756")),
    ("economical_B8", ("economical", "--group", "B8")),
    ("base_B4", ("base", "--group", "B4")),
    ("base_D4", ("base", "--group", "D4")),
    ("tree_A3", ("tree", "--group", "A3")),
    ("bounds_def6", ("bounds", "--defining", "321654", "6")),
)
CLI_PASS_S = 15  # one pass over CLI_COMMANDS on the seed code

# Public calls the workloads time, one span each.
SWEEP_CALLS = (
    "weyl.element",
    "patterns.random_acceptable",
    "patterns.check_acceptable",
    "recognition.recognize_general",
    "cells.describe",
    "cells.verify_description",
)
FLAGS_CALLS = (
    "flags.random_cell_point",
    "flags.Flag",
    "recognition.recognize_typeA",
    "flags.vanishing_pattern",
)
FLAG_CLASSES = tuple(f"n{n}" for n in FLAG_SIZES)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    out = {}
    for calls, classes in ((SWEEP_CALLS, tuple(SWEEP_GROUPS)), (FLAGS_CALLS, FLAG_CLASSES)):
        for call in calls:
            for cls in classes:
                out[f"{call}.mean_us.{cls}"] = "us"
            out[f"{call}.first_ms"] = "ms"
    for cls in SWEEP_GROUPS:
        for count in ("recognition.queries", "cells.equalities", "cells.inequalities"):
            out[f"{count}_per_op.{cls}"] = "count"
    for cls in FLAG_CLASSES:
        out[f"recognition.recognize_typeA.self_us.{cls}"] = "us"
        out[f"recognition.queries_per_op.{cls}"] = "count"
    for cid, _argv in CLI_COMMANDS:
        out[f"cli.{cid}.s"] = "s"
    out["cli.import.s"] = "s"
    out["trace.overhead_pct"] = "%"
    return out


# ----- inputs -----------------------------------------------------------------

def _per_stratum(total: int, strata: int) -> int:
    return -(-max(total, MIN_TAIL_OPS) // strata)


def sweep_inputs(seed: int, seconds: int) -> list[dict]:
    """Ops of the sweep workload: the same number per group, in seeded order.

    Each op is a group, a random word of length in [|Phi+|, 3|Phi+|] and a
    seed for the random acceptable pattern.
    """
    rng = random.Random(f"sweep:{seed}")
    groups = [(cls, g, data) for cls, gs in SWEEP_GROUPS.items() for g, data in gs.items()]
    per_group = _per_stratum(SWEEP_OPS_PER_S * seconds, len(groups))
    ops = []
    for cls, spec, (rank, npos) in groups:
        for _ in range(per_group):
            length = rng.randint(npos, 3 * npos)
            word = [rng.randint(1, rank) for _ in range(length)]
            ops.append({"class": cls, "group": spec, "word": word,
                        "pattern_seed": rng.getrandbits(32)})
    rng.shuffle(ops)
    return ops


def flags_inputs(seed: int, seconds: int) -> list[dict]:
    """Ops of the flags workload: the same number per n, in seeded order.

    Each op is a random permutation w of 1..n and a seed for the cell point.
    """
    rng = random.Random(f"flags:{seed}")
    per_size = _per_stratum(FLAGS_OPS_PER_S * seconds, len(FLAG_SIZES))
    ops = []
    for n in FLAG_SIZES:
        for _ in range(per_size):
            w = list(range(1, n + 1))
            rng.shuffle(w)
            ops.append({"class": f"n{n}", "n": n, "w": w, "point_seed": rng.getrandbits(32)})
    rng.shuffle(ops)
    return ops


def cli_inputs(seconds: int) -> list[dict]:
    """Ops of the cli-cold workload: whole passes over the fixed command list,
    at least two, so that every command is timed twice."""
    passes = max(2, round(seconds / CLI_PASS_S))
    return [{"class": cid, "argv": list(argv)} for _ in range(passes) for cid, argv in CLI_COMMANDS]


def digest(obj) -> str:
    """Digest of a JSON-serialisable value, to show two runs saw the same inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----- statistics -------------------------------------------------------------

def percentile(values, q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q of
    the samples at or below it.

    Raises ValueError unless at least ``min_beyond`` samples lie above the
    reported rank, so a tail figure always rests on that many samples.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples leaves {len(ordered) - rank} "
            f"above it, fewer than {min_beyond}"
        )
    return ordered[rank - 1]


# ----- tracing ----------------------------------------------------------------

class NullTracer:
    """Calls straight through; the untraced runs use this."""

    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call: (name, start_ns, end_ns, parent, op).

    ``parent`` is the index of the enclosing span or None; ``op`` is the id of
    the op the call belongs to. Spans stay in memory until ``dump``.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def dump(self, path, **header):
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        covered = 0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out
