"""Tests of the benchmark's own helpers (no training runs)."""

import copy
import json
from pathlib import Path

import pytest

import run_bench
from harness import (
    Tracer,
    beyond,
    check_invariants,
    compare_record,
    percentile,
    reference_fields,
    self_times,
)

BENCH = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["round", 0.0, 10.0, -1],
        ["loss", 1.0, 4.0, 0],
        ["forward", 2.0, 3.5, 1],
        ["backward", 5.0, 9.0, 0],
        ["loss", 20.0, 21.0, -1],
    ]
    got = self_times(spans)
    assert got == pytest.approx({"round": 3.0, "loss": 2.5, "forward": 1.5,
                                 "backward": 4.0})


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(name, parent) for name, _s, _e, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(total)


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("fail", fail)()
    assert tracer.spans[0][2] is not None
    tracer.wrap("next", lambda: None)()
    assert tracer.spans[1][3] == -1


def test_percentile_needs_ten_samples_beyond():
    assert beyond(200, 95) == 10
    assert beyond(199, 95) == 9
    values = list(range(200, 0, -1))
    assert percentile(values, 95) == 190
    assert percentile(values, 50) == 100
    with pytest.raises(ValueError):
        percentile(values[:199], 95)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def record():
    return {
        "acc_matrix": [[0.9], [0.8, 0.95]],
        "final_acc": 0.875, "final_fm": 0.1,
        "samples_seen": {"1": 20, "2": 19},
        "counters": {"inner_updates": 6, "outer_updates": 6,
                     "adversarial_updates": 6},
        "seed": 3,
    }


def test_compare_record_names_each_differing_field():
    reference = reference_fields(record())
    assert compare_record(record(), reference) == []
    changed = record()
    changed["final_fm"] = 0.1 + 1e-16
    changed["counters"]["outer_updates"] = 5
    changed["seed"] = 4  # not a reference field
    assert compare_record(changed, reference) == ["final_fm", "counters"]


def test_invariants_hold_for_consistent_record():
    # batch 8: ceil(20/8) + ceil(19/8) = 6 rounds
    assert check_invariants(record(), {1: 20, 2: 19}, 8, "scale", 1, 1, 1) == []
    er = record()
    er["counters"] = {"inner_updates": 6, "outer_updates": 0,
                      "adversarial_updates": 0}
    assert check_invariants(er, {1: 20, 2: 19}, 8, "er", 1, 1, 1) == []


@pytest.mark.parametrize("field, value", [
    ("samples_seen", {"1": 20, "2": 18}),
    ("counters", {"inner_updates": 6, "outer_updates": 6,
                  "adversarial_updates": 5}),
    ("acc_matrix", [[0.9], [0.8, 1.5]]),
    ("acc_matrix", [[0.9, 0.1], [0.8, 0.95]]),
    ("acc_matrix", [[0.9]]),
])
def test_invariants_catch_each_violation(field, value):
    bad = copy.deepcopy(record())
    bad[field] = value
    assert check_invariants(bad, {1: 20, 2: 19}, 8, "scale", 1, 1, 1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run_bench.PER_LAYER


@pytest.mark.parametrize("name", list(run_bench.WORKLOADS))
def test_reference_records_cover_the_reference_seed(name):
    reference = run_bench.load_reference(name)
    n = run_bench.WORKLOADS[name]["seeds"]
    assert sorted(reference) == [str(s) for s in range(n)]
    for fields in reference.values():
        assert sorted(fields) == sorted(reference_fields(fields))
