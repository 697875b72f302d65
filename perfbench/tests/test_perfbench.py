"""Tests of the benchmark's own arithmetic and output checks.

Run with ``python3 -m pytest perfbench/tests``.
"""

import pytest

from check import CheckFailed, check_polytope, parse_output
from quantiles import tail
from spans import layer_self_times, self_times

# resnewt compute on the Sylvester instance of the README.
SYLVESTER_OUT = """\
mode: exact
dim: 2
ambient: 5
vertices: 3
v 0 0 2 2 0
v 0 2 0 1 1
v 2 0 0 0 2
facets: 3
f -5 4 1 3 -3 <= 8
f 1 -2 1 0 0 <= 2
f 1 4 -5 -3 3 <= 8
equations: 3
e 1 1 1 0 0 = 2
e 2 1 0 1 -1 = 2
e 2 1 0 2 0 = 4
"""


def test_self_times_of_hand_built_tree():
    # name, start, end, parent, instance, hidden (time of span-less calls)
    spans = [
        ["cli.run", 0.0, 10.0, None, 0, 0.0],
        ["reconstruct.compute_pi", 1.0, 9.0, 0, 0, 0.0],
        ["oracle.vtx", 2.0, 5.0, 1, 0, 0.0],
        ["geometry.insert", 3.0, 4.0, 2, 0, 0.25],
        ["geometry.insert", 6.0, 8.5, 1, 0, 0.5],
        ["cli.run", 20.0, 21.0, None, 1, 0.0],
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.5, 2.0, 0.75, 2.0, 1.0])
    flat = {"kernels.predicate": ["kernels", 7, 0.75]}
    assert layer_self_times(spans, flat) == pytest.approx(
        {"cli": 3.0, "reconstruct": 2.5, "oracle": 2.0, "geometry": 2.75, "kernels": 0.75}
    )
    # The layer self times add up to the root spans' durations.
    assert sum(layer_self_times(spans, flat).values()) == pytest.approx(11.0)


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(1, 101))  # 1..100
    assert tail(xs) == (90, 90, 10)
    pct, value, beyond = tail(list(range(1, 29)))  # n = 28
    assert (pct, value, beyond) == (64, 18, 10)
    for n in range(11, 300):
        pct, value, beyond = tail(list(range(n)))
        assert beyond >= 10
        if pct < 99:  # one more whole percentile would leave fewer than 10
            assert n - -(-(pct + 1) * n // 100) < 10
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_output_check_accepts_sylvester():
    check_polytope(parse_output(SYLVESTER_OUT), main_calls=6)


def test_output_check_rejects_moved_vertex():
    bad = SYLVESTER_OUT.replace("v 0 2 0 1 1", "v 0 2 0 1 2")
    with pytest.raises(CheckFailed):
        check_polytope(parse_output(bad))
    # Moved within the equations' plane but off a facet.
    bad = SYLVESTER_OUT.replace("v 0 2 0 1 1", "v 0 2 0 2 1")
    with pytest.raises(CheckFailed):
        check_polytope(parse_output(bad))


def test_output_check_rejects_dropped_facet():
    bad = SYLVESTER_OUT.replace("f 1 -2 1 0 0 <= 2\n", "").replace("facets: 3", "facets: 2")
    with pytest.raises(CheckFailed):
        check_polytope(parse_output(bad))
    # Dropping the line without fixing the count fails as well.
    bad = SYLVESTER_OUT.replace("f 1 -2 1 0 0 <= 2\n", "")
    with pytest.raises(CheckFailed):
        check_polytope(parse_output(bad))


def test_output_check_rejects_call_bound_and_sandwich():
    with pytest.raises(CheckFailed):
        check_polytope(parse_output(SYLVESTER_OUT), main_calls=7)
    sandwich = "sandwich:\n  inner-volume: 2\n  outer-volume: 3\n  ratio: 2/3\n  threshold: 9/10\n  reached: no\n"
    with pytest.raises(CheckFailed):
        check_polytope(parse_output(SYLVESTER_OUT + sandwich), threshold=0.9)
    ok = "sandwich:\n  inner-volume: 2\n  outer-volume: 2\n  ratio: 1\n  threshold: 9/10\n  reached: yes\n"
    check_polytope(parse_output(SYLVESTER_OUT + ok), threshold=0.9)


def test_benchmark_json_matches_reported_metrics():
    import json
    import os

    from run import E2E_UNITS
    from workloads import LAYER_METRICS, WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
