"""Tests of the benchmark's own helpers: the percentile rule, span self time,
seeded inputs, and agreement of BENCHMARK.json with the metrics emitted."""

import json
from pathlib import Path

import pytest

from benchlib import (
    END_TO_END,
    MIN_BEYOND,
    MIN_TAIL_OPS,
    SWEEP_GROUPS,
    TAIL_Q,
    Tracer,
    digest,
    flags_inputs,
    per_layer_units,
    percentile,
    self_times,
    sweep_inputs,
)


def test_percentile_leaves_min_beyond_samples_above():
    values = list(range(1, MIN_TAIL_OPS + 1))
    p99 = percentile(values, TAIL_Q, MIN_BEYOND)
    assert p99 == MIN_TAIL_OPS - MIN_BEYOND
    assert sum(v > p99 for v in values) == MIN_BEYOND
    with pytest.raises(ValueError):
        percentile(values[:-1], TAIL_Q, MIN_BEYOND)


def test_percentile_nearest_rank():
    assert percentile([5, 1, 3], 0.5) == 3
    assert percentile([4, 2], 0.0) == 2
    assert percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("op", 0, 100, None, 0),
        ("a", 10, 30, 0, 0),
        ("b", 50, 60, 0, 0),
        ("a.inner", 12, 28, 1, 0),
    ]
    assert self_times(spans) == [70, 4, 10, 16]


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        ("op", 0, 100, None, 0),
        ("a", 10, 40, 0, 0),
        ("b", 20, 50, 0, 0),
        ("c", 90, 120, 0, 0),
    ]
    assert self_times(spans)[0] == 100 - 40 - 10


def test_tracer_records_parent_and_op():
    tr = Tracer()
    tr.op = 3
    assert tr.call("outer", lambda: tr.call("inner", lambda x: x + 1, 1)) == 2
    (outer, o_start, o_end, o_parent, o_op), inner = tr.spans
    assert (outer, o_parent, o_op) == ("outer", None, 3)
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 3
    assert o_start <= inner[1] <= inner[2] <= o_end


@pytest.mark.parametrize("make", [sweep_inputs, flags_inputs])
def test_same_seed_same_inputs(make):
    a, b, c = make(7, 10), make(7, 10), make(8, 10)
    assert a == b and digest(a) == digest(b)
    assert a != c and digest(a) != digest(c)
    assert len(a) >= MIN_TAIL_OPS


def test_sweep_inputs_are_stratified_and_in_range():
    ops = sweep_inputs(1, 10)
    groups = {g: data for cls in SWEEP_GROUPS.values() for g, data in cls.items()}
    counts = {g: sum(op["group"] == g for op in ops) for g in groups}
    assert len(set(counts.values())) == 1
    for op in ops:
        rank, npos = groups[op["group"]]
        assert npos <= len(op["word"]) <= 3 * npos
        assert all(1 <= i <= rank for i in op["word"])


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
