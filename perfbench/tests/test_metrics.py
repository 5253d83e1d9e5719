"""Metric arithmetic of the benchmark: tail rule, self times, failure base.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("n", [1, 10, 11, 20])
def test_tail_needs_more_than_twenty_samples(n):
    assert metrics.tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n,pct", [(21, 52), (80, 87), (100, 90), (1000, 99), (1001, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    got_pct, value = metrics.tail_percentile(values)
    assert got_pct == pct
    assert sum(v > value for v in values) >= 10
    # One percentile higher would leave fewer than ten samples beyond.
    rank_next = -(-(pct + 1) * n // 100)
    assert n - rank_next < 10


def test_failed_frac_counts_against_attempted():
    assert metrics.failed_frac(0, 7) == 0.0
    assert metrics.failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_frac(3, 2)


def test_crashed_child_counts_its_last_analysis(tmp_path):
    workload = workloads.WORKLOADS["minos-n3"]
    records = [
        {"phase": "warmup", "index": -1, "spectrum": "warmup", "rc": 0, "error": None,
         "wall_s": 0.1, "artifact_bytes": 1},
        {"phase": "timed", "index": 0, "spectrum": "q30-00", "rc": 4, "error": None,
         "wall_s": 0.2, "artifact_bytes": 1},
        {"phase": "timed", "index": 1, "spectrum": "q30-01", "rc": None,
         "error": "MemoryError()", "wall_s": 0.3, "artifact_bytes": 0},
    ]
    # No summary line: the child died during a third analysis.
    outcome = run.evaluate(workload, tmp_path, records, None, [0.5], 0, {})
    assert (outcome["attempted"], outcome["failed"]) == (3, 3)
    assert not outcome["correct"]


def test_self_time_subtracts_child_spans():
    # Clock reads: root, mid, leaf start; leaf, mid end; other start, end; root end.
    ticks = iter([0.0, 1.0, 1.5, 4.0, 5.0, 6.0, 6.25, 9.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None, keep=False)
    mid = tracer.wrap("mid", leaf)
    other = tracer.wrap("other", lambda: None)
    tracer.begin(7)
    tracer.call("root", lambda: (mid(), other()))

    assert tracer.self_s == pytest.approx(
        {"leaf": 2.5, "mid": 1.5, "other": 0.25, "root": 4.75}
    )
    assert sum(tracer.self_s.values()) == pytest.approx(9.0)
    by_name = {s[1]: s for s in tracer.spans}
    assert "leaf" not in by_name  # aggregated, not stored
    root_id = by_name["root"][0]
    assert by_name["mid"][4] == root_id and by_name["other"][4] == root_id
    assert by_name["root"][4] is None
    assert all(s[5] == 7 for s in tracer.spans)


def test_failing_child_span_still_subtracts():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise MemoryError

    bad = tracer.wrap("bad", boom)

    def root():
        with pytest.raises(MemoryError):
            bad()

    tracer.call("root", root)
    assert tracer.self_s == pytest.approx({"bad": 2.0, "root": 2.0})
    assert tracer.calls == {"bad": 1, "root": 1}


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    record = {"wall_s": 1.0, "artifact_bytes": 1,
              "trace": {"self_s": {"cli": 1.0}, "calls": {}, "counts": {}}}
    layer = list(metrics.per_layer([record], [0.9])) + ["check.report_bytes_identical"]
    assert [m["name"] for m in bench["per_layer"]] == layer
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
