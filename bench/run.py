"""Benchmark of schubcells: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {sweep,flags,cli-cold,all} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it measures the checkout it sits in (src/ next to
bench/). It prints each metric by name with its unit, a `meta:` line, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, derived from spans that are also written to
bench/out/. Times are scaled by a calibration job (see calibrate.py); the
printed lines also give the wall-clock figures.
bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from benchlib import (
    BLOCK,
    CLI_COMMANDS,
    END_TO_END,
    FLAG_CLASSES,
    FLAGS_CALLS,
    MIN_BEYOND,
    SWEEP_CALLS,
    SWEEP_GROUPS,
    TAIL_Q,
    NullTracer,
    Tracer,
    cli_inputs,
    digest,
    flags_inputs,
    per_layer_units,
    percentile,
    self_times,
    sweep_inputs,
)
from calibrate import CAL_REF_NS, ORBIT_REF_NS, Calibrator, fresh_sample

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
# Measured processes import the checkout's src/ and, like an installed
# package, use and fill the bytecode cache whatever the caller's setting.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

SETUPS = 2          # fresh set-ups per run; setup_s is their median
IMPORT_PROBE = ["-c", "import schubcells.cli"]
IMPORT_PROBES = 5   # cli-cold: timed IMPORT_PROBE starts per run
TIMEOUT_S = 150     # per child process; a whole run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure: nothing is reported."""


# ----- sweep and flags: one worker process per set-up -----------------------

class Worker:
    """One run of worker.py, paced by the calibration job at every "mark"."""

    def __init__(self, cal: Calibrator, workload: str, ops=None, trace_file=None):
        self.setup_s = {"scaled": 0.0, "wall": 0.0}
        self.setup_scales: list[float] = []  # per set-up step: the import, then each warm-up
        self.op_scales: list[float] = []
        self.result = None
        argv = [sys.executable, str(BENCH / "worker.py"), workload]
        if ops is None:
            argv.append("--setup-only")
        if trace_file is not None:
            argv += ["--trace-file", str(trace_file)]
        cal.scale()  # a fresh sample to open the first step
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=ENV, cwd=ROOT, text=True)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            while True:
                line = proc.stdout.readline().strip()
                seconds = time.perf_counter() - start
                if line not in ("mark", "ready"):
                    raise BenchError(f"{workload} worker failed during set-up")
                scale = cal.scale()
                self.setup_scales.append(scale)
                self.setup_s["wall"] += seconds
                self.setup_s["scaled"] += seconds * scale
                if line == "ready":
                    break
                self._send(proc, "go")
                start = time.perf_counter()
            if ops is not None:
                self._send(proc, json.dumps(ops))
                block_scales = []
                while (line := proc.stdout.readline()).strip() == "mark":
                    block_scales.append(cal.scale())
                    self._send(proc, "go")
                block_scales.append(cal.scale())
                # The first mark opens block 0; each later one closes a block.
                self.op_scales = [block_scales[1 + k // BLOCK] for k in range(len(ops))]
                self.result = json.loads(line)
            if proc.wait() != 0:
                raise BenchError(f"{workload} worker exited with code {proc.returncode}")
        except json.JSONDecodeError:
            raise BenchError(f"{workload} worker ended without a result") from None
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    @staticmethod
    def _send(proc, line):
        proc.stdin.write(line + "\n")
        proc.stdin.flush()


def end_to_end(setups_s, latencies_ns, scales, rss_mb, tail_min_beyond):
    """The end-to-end metrics, with op k's latency multiplied by scales[k]."""
    ms = [ns * s / 1e6 for ns, s in zip(latencies_ns, scales)]
    return {
        "setup_s": statistics.median(setups_s),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": percentile(ms, TAIL_Q, tail_min_beyond),
        "peak_rss_mb": rss_mb,
    }


def ops_per_s(latencies_ns, scales):
    return len(latencies_ns) / sum(ns * s for ns, s in zip(latencies_ns, scales)) * 1e9


def overhead_pct(base, traced):
    """Drop in ops_per_s from the untraced to the traced run, in percent."""
    return (base - traced) / base * 100


def worker_workload(cal, workload, ops, trace):
    if not trace:
        runs = [Worker(cal, workload, ops)]
        runs += [Worker(cal, workload) for _ in range(SETUPS - 1)]
        res = runs[0].result
        lat, rss_mb = res["latencies_ns"], res["rss_kb"] / 1024
        metrics = end_to_end([w.setup_s["scaled"] for w in runs], lat, runs[0].op_scales,
                             rss_mb, MIN_BEYOND)
        wall = end_to_end([w.setup_s["wall"] for w in runs], lat, [1.0] * len(lat),
                          rss_mb, MIN_BEYOND)
        return res, metrics, {"wall": wall}

    base = Worker(cal, workload, ops)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}.json"
    traced = Worker(cal, workload, ops, span_file)
    with open(span_file) as fh:
        trace_data = json.load(fh)
    metrics = layer_metrics(workload, trace_data, traced, [op["class"] for op in ops])
    metrics["trace.overhead_pct"] = overhead_pct(
        ops_per_s(base.result["latencies_ns"], base.op_scales),
        ops_per_s(traced.result["latencies_ns"], traced.op_scales))
    return traced.result, metrics, {"span_file": str(span_file.relative_to(ROOT))}


def layer_metrics(workload, trace_data, worker, classes):
    calls, class_names = {
        "sweep": (SWEEP_CALLS, tuple(SWEEP_GROUPS)),
        "flags": (FLAGS_CALLS, FLAG_CLASSES),
    }[workload]
    # Set-up step 0 is the import; warm-up j runs in step j + 1.
    warm_scale = {f"warm:{key}": worker.setup_scales[j + 1]
                  for j, key in enumerate(trace_data["warm"])}
    durations: dict[tuple[str, str], list[float]] = {}
    selfs: dict[tuple[str, str], list[float]] = {}
    first: Counter = Counter()
    spans = trace_data["spans"]
    for span, self_ns in zip(spans, self_times(spans)):
        name, start, end, _parent, op = span
        if isinstance(op, str):
            first[name] += (end - start) * warm_scale[op]
            continue
        scale = worker.op_scales[op]
        durations.setdefault((name, classes[op]), []).append((end - start) * scale)
        selfs.setdefault((name, classes[op]), []).append(self_ns * scale)
    out = {}
    for call in calls:
        for cls in class_names:
            out[f"{call}.mean_us.{cls}"] = statistics.fmean(durations[call, cls]) / 1e3
        out[f"{call}.first_ms"] = first[call] / 1e6
    per_class: dict[str, list[dict]] = {cls: [] for cls in class_names}
    for cls, c in zip(classes, worker.result["counts"]):
        if c:  # an op that raised has no counts
            per_class[cls].append(c)
    for cls in class_names:
        rows = per_class[cls]
        out[f"recognition.queries_per_op.{cls}"] = statistics.fmean(r["queries"] for r in rows)
        if workload == "sweep":
            for key in ("equalities", "inequalities"):
                out[f"cells.{key}_per_op.{cls}"] = statistics.fmean(r[key] for r in rows)
        else:
            out[f"recognition.recognize_typeA.self_us.{cls}"] = (
                statistics.fmean(selfs["recognition.recognize_typeA", cls]) / 1e3)
    return out


# ----- cli-cold: one fresh CLI process per op ----------------------------------

def run_python(tracer, name, argv):
    """Run `python <argv>` in the checkout.

    Returns (wall ns, exit code, stdout bytes, peak RSS of that process in KB).
    """
    def run():
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    start = time.perf_counter_ns()
    code, out, rss_kb = tracer.call(name, run)
    return time.perf_counter_ns() - start, code, out, rss_kb


def cli_pass(tracer, ops, orbit):
    """Run each op once and sample the orbit job after it, appending to
    ``orbit``; each op is scaled by the samples just before and after it."""
    expected = {cid: (EXPECTED / f"{cid}.txt").read_bytes() for cid, _ in CLI_COMMANDS}
    latencies, scales, errors, rss = [], [], [], []
    for k, op in enumerate(ops):
        tracer.op = k
        ns, code, out, rss_kb = run_python(tracer, f"cli.{op['class']}",
                                           ["-m", "schubcells.cli", *op["argv"]])
        orbit.append(fresh_sample())
        latencies.append(ns)
        scales.append(ORBIT_REF_NS / ((orbit[-2] + orbit[-1]) / 2))
        rss.append(rss_kb)
        if code != 0:
            errors.append(f"{op['class']}: exit code {code}")
        elif out != expected[op["class"]]:
            errors.append(f"{op['class']}: stdout differs from the expected file")
        else:
            errors.append(None)
    return latencies, scales, errors, max(rss)


def cli_workload(ops, trace):
    orbit = [fresh_sample()]
    tracer = Tracer() if trace else NullTracer()
    tracer.op = "import"
    imports = [run_python(tracer, "cli.import", IMPORT_PROBE)[0] for _ in range(IMPORT_PROBES)]
    orbit.append(fresh_sample())
    import_scale = ORBIT_REF_NS / ((orbit[0] + orbit[1]) / 2)
    if not trace:
        latencies, scales, errors, rss_kb = cli_pass(tracer, ops, orbit)
        # p99 of a run's 20 ops is its slowest op.
        metrics = end_to_end([ns * import_scale / 1e9 for ns in imports], latencies, scales,
                             rss_kb / 1024, 0)
        wall = end_to_end([ns / 1e9 for ns in imports], latencies, [1.0] * len(latencies),
                          rss_kb / 1024, 0)
        return ({"latencies_ns": latencies, "errors": errors}, metrics,
                {"wall": wall, "cal_samples": orbit})

    base, base_scales, _, _ = cli_pass(NullTracer(), ops, orbit)
    latencies, scales, errors, _ = cli_pass(tracer, ops, orbit)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / "spans-cli-cold.json"
    tracer.dump(span_file, workload="cli-cold")
    by_name: dict[str, list[float]] = {}
    for (name, start, end, _parent, _op), scale in zip(
            tracer.spans, [import_scale] * IMPORT_PROBES + scales):
        by_name.setdefault(name, []).append((end - start) * scale)
    metrics = {f"cli.{cid}.s": statistics.fmean(by_name[f"cli.{cid}"]) / 1e9
               for cid, _ in CLI_COMMANDS}
    metrics["cli.import.s"] = statistics.median(by_name["cli.import"]) / 1e9
    metrics["trace.overhead_pct"] = overhead_pct(ops_per_s(base, base_scales),
                                                 ops_per_s(latencies, scales))
    return {"latencies_ns": latencies, "errors": errors}, metrics, {
        "span_file": str(span_file.relative_to(ROOT)), "cal_samples": orbit}


# ----- command ------------------------------------------------------------------

def source_identity():
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "schubcells").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha, h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace):
    run_python(NullTracer(), "cli.import", IMPORT_PROBE)  # fills the bytecode cache, untimed
    if workload == "cli-cold":
        ops = cli_inputs(seconds)
        res, metrics, extra = cli_workload(ops, trace)
    else:
        ops = (sweep_inputs if workload == "sweep" else flags_inputs)(seed, seconds)
        with Calibrator() as cal:
            res, metrics, extra = worker_workload(cal, workload, ops, trace)
        extra["cal_samples"] = cal.samples

    errors = [e for e in res["errors"] if e]
    warm_errors = res.get("warm_errors", [])
    for e in (warm_errors + errors)[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    units = per_layer_units() if trace else END_TO_END
    unknown = set(metrics) - set(units)
    if unknown:
        raise BenchError(f"metrics without a declared unit: {sorted(unknown)}")

    sha, src_digest = source_identity()
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": sha, "src_digest": src_digest, "inputs_digest": digest(ops),
        "ops_per_class": Counter(op["class"] for op in ops),
        "groups": res.get("groups"),
        "cal_ref_ns": ORBIT_REF_NS if workload == "cli-cold" else CAL_REF_NS,
        "cal_median_ns": statistics.median(extra.pop("cal_samples")),
        **extra,
    }
    attempted, failed = len(res["latencies_ns"]), len(errors)
    wall = extra.get("wall", {})
    print(f"{workload} (seed {seed}, {'traced' if trace else 'untraced'}):")
    for name, unit in units.items():
        if name in metrics:
            note = f"  (wall clock {wall[name]:.4f})" if name in wall else ""
            print(f"  {name:<44} {metrics[name]:>14.4f} {unit}{note}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.4f} ({failed}/{attempted})")
    print("meta: " + json.dumps(meta, sort_keys=True))
    # Every declared metric appears; one this workload does not exercise is 0.
    result = {
        "correct": failed == 0 and not warm_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result), flush=True)


WORKLOADS = ("sweep", "flags", "cli-cold")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "schubcells" / "__init__.py").is_file():
        print(f"bench: no src/schubcells package under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # Each workload in its own interpreter, so no state carries over.
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    try:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
