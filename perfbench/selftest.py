"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

(The file is deliberately not named ``test_*.py``: the program's own
test suite collects every such file under the root, and these tests
exercise whole workloads.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from run import ROOT, check_metric_names, measure_for, tail  # noqa: E402
from spans import Span, Tracer, coverage, self_times, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, "test")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], clip=(1, 5.5)) == 2.5
    assert union_length([]) == 0


def test_self_time_subtracts_nested_children():
    spans = [_span(1, "a.x", 0, 10), _span(2, "a.y", 1, 4, parent=1),
             _span(3, "a.z", 2, 3, parent=2)]
    times = self_times(spans)
    assert times == {1: 7, 2: 2, 3: 1}


def test_self_time_counts_overlapping_children_once():
    # Two children from concurrent threads overlap on [2, 3]; a third
    # outlives its parent and is clipped to the parent's interval.
    spans = [_span(1, "a.p", 0, 10), _span(2, "a.c", 1, 3, parent=1),
             _span(3, "a.c", 2, 5, parent=1),
             _span(4, "a.c", 9, 12, parent=1)]
    assert self_times(spans)[1] == pytest.approx(10 - 4 - 1)


def test_self_time_within_one_layer():
    # stage A -> nn.fit -> stage B: A's self time within the stage layer
    # excludes only B, not the training span between them.
    spans = [_span(1, "stage.a", 0, 10), _span(2, "nn.fit", 1, 9, 1),
             _span(3, "stage.b", 2, 4, 2)]
    times = self_times(spans, keep=lambda s: s.layer == "stage")
    assert times == {1: 8, 3: 2}


def test_coverage_is_share_of_wall_in_top_level_spans():
    spans = [_span(1, "a", 0, 2), _span(2, "b", 1, 3),
             _span(3, "c", 1, 4, parent=1)]
    assert coverage(spans, 0, 4) == pytest.approx(0.75)


def test_tracer_records_parents_per_thread():
    tracer = Tracer("run-1")
    with tracer.span("outer.a"):
        with tracer.span("inner.b"):
            pass
        thread = threading.Thread(target=lambda: tracer.span("t.c")
                                  .__enter__().__exit__())
        thread.start()
        thread.join()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner.b"].parent == by_name["outer.a"].span_id
    assert by_name["outer.a"].parent is None
    assert by_name["t.c"].parent is None  # a new thread starts top-level
    assert {span.run_id for span in tracer.spans} == {"run-1"}
    outer, inner = by_name["outer.a"], by_name["inner.b"]
    assert outer.start <= inner.start <= inner.end <= outer.end


# ----------------------------------------------------------------------
# statistics and names
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 101))) == (90, 90.0, 10)
    value, percentile, beyond = tail([5.0] * 3 + [1.0] * 8)
    assert (value, beyond) == (1.0, 10)
    assert percentile == pytest.approx(100 / 11)
    # Too few samples: no such percentile, the maximum stands in.
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", ["wall_s", "stage.baseline_s",
                                  "nn.fit-peak", "9lives"])
def test_metric_name_grammar_accepts(name):
    check_metric_names([name])


@pytest.mark.parametrize("names", [["has space"], ["_lead"], ["tab\t"],
                                   ["µs"], ["a" * 65], ["x", "x"]])
def test_metric_name_grammar_rejects(names):
    with pytest.raises(ValueError):
        check_metric_names(names)


def test_benchmark_metric_names_follow_the_grammar():
    check_metric_names([m["name"] for m in SPEC["end_to_end"]
                        + SPEC["per_layer"]])


def test_measure_for_stops_before_overrunning(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def iterate(took):
        clock[0] += took
        return took

    # 2 s iterations in 7 s: a fourth would end at 8 s.
    assert measure_for(7.0, 100.0, lambda: iterate(2.0)) == [2.0] * 3
    # One iteration always runs, even if it alone overruns.
    assert measure_for(1.0, clock[0], lambda: iterate(5.0)) == [5.0]
    # The run's own budget also stops it.
    assert len(measure_for(1e9, clock[0] - run.RUN_BUDGET_S + 9,
                           lambda: iterate(2.0))) == 3


# ----------------------------------------------------------------------
# whole workloads on tiny inputs
# ----------------------------------------------------------------------
def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds",
                "1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in summary["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
