"""Calibration of the shared machine's speed, from a separate process.

On a small shared machine the speed of this kind of code (dicts keyed by
tuples, Fraction arithmetic, a working set larger than the caches) swings by
up to 1.7x, for seconds or minutes. A fixed pure-Python job with that profile
slows down with it. The benchmark times the job at both ends of every
measured interval, while the measured process waits, and reports an interval
of T ns between job times c0 and c1 as T * CAL_REF_NS / ((c0 + c1) / 2): its
length at the speed at which the job takes CAL_REF_NS. The job never calls
schubcells, so a change to the package cannot move it.

The job runs in its own process (`python3 bench/calibrate.py`, one line in,
one time in ns out) so that its table adds nothing to the memory of the
processes the benchmark starts and measures.

The short CLI processes of cli-cold do not follow that long-lived job. They
follow orbit_job, Fraction orbits like the ones the CLI computes, timed in a
fresh interpreter (`--orbit`) before the first CLI process and after each
one; a process of T ns between samples o0 and o1 is reported as
T * ORBIT_REF_NS / ((o0 + o1) / 2).
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

CAL_REF_NS = 50_000_000
ENTRIES = 200_000
STEPS = 10_000
ORBIT_REF_NS = 400_000_000
ORBIT_RANK = 7


class Calibrator:
    """Client of the calibration process; use it as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.samples: list[int] = []
        self._sample()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()

    def _sample(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.samples.append(int(self._proc.stdout.readline()))

    def scale(self) -> float:
        """Time the job now; return the factor for the interval that just ended."""
        self._sample()
        return CAL_REF_NS / ((self.samples[-2] + self.samples[-1]) / 2)


def orbit_job() -> int:
    """Orbits of the fundamental weights of B_ORBIT_RANK under the simple
    reflections, in Fraction coordinates: the kind of work the CLI commands
    do, written out here so that no change to schubcells can move it."""
    rank = ORBIT_RANK
    roots = [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(rank))
             for i in range(rank - 1)]
    roots.append(tuple(1 if j == rank - 1 else 0 for j in range(rank)))
    count = 0
    for i in range(1, rank + 1):
        c = Fraction(1) if i < rank else Fraction(1, 2)
        omega = tuple(c if j < i else Fraction(0) for j in range(rank))
        seen = {omega}
        frontier = [omega]
        while frontier:
            nxt = []
            for v in frontier:
                for a in roots:
                    d = sum(x * y for x, y in zip(v, a) if y)
                    if d:
                        k = 2 * d / sum(y * y for y in a)
                        w = tuple(x - k * y if y else x for x, y in zip(v, a))
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
            frontier = nxt
        count += len(seen)
    return count


def fresh_sample() -> int:
    """Time orbit_job in a fresh interpreter; return ns."""
    proc = subprocess.run([sys.executable, __file__, "--orbit"], capture_output=True,
                          text=True, timeout=60, check=True)
    return int(proc.stdout)


def serve():
    table = {(i, i * 7919 % 1_000_003): Fraction(i, 7) for i in range(ENTRIES)}
    keys = list(table)
    random.Random(1).shuffle(keys)
    offset = 0
    for _request in sys.stdin:
        chunk = keys[offset:offset + STEPS]
        offset = (offset + STEPS) % (ENTRIES - STEPS)
        acc = 0
        start = time.perf_counter_ns()
        for k in chunk:
            f = table[k]
            acc += (f * 3).numerator
            table[k] = Fraction(f.numerator, f.denominator)
        print(time.perf_counter_ns() - start, flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--orbit"]:
        start = time.perf_counter_ns()
        orbit_job()
        print(time.perf_counter_ns() - start)
    else:
        serve()
