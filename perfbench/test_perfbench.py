"""Tests of the benchmark's own statistics and bookkeeping.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from stats import tail, tally  # noqa: E402
from tracer import Span, Tracer, self_times, union_length  # noqa: E402


# -- the percentile with ten samples beyond it --------------------------------


def test_tail_of_twenty_is_the_median_rank():
    result = tail(range(1, 21))
    assert result == {"value": 10, "percentile": 50.0, "samples": 20,
                      "beyond": 10}


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(value) for value in range(100, 0, -1)]
    result = tail(samples)
    assert result["value"] == 90.0
    assert result["percentile"] == 90.0
    assert sum(1 for value in samples if value > result["value"]) == 10


def test_tail_is_withheld_below_twenty_samples():
    assert tail(range(19)) is None
    assert tail([]) is None


def test_tail_counts_beyond_by_rank_when_values_tie():
    result = tail([1.0] * 30)
    assert result["value"] == 1.0
    assert result["percentile"] == pytest.approx(200 / 3)


# -- self time ----------------------------------------------------------------


def test_union_length_counts_overlaps_once():
    assert union_length([(1, 3), (2, 5), (8, 10)]) == 6
    assert union_length([(0, 1), (1, 2)]) == 2
    assert union_length([(3, 3), (5, 4)]) == 0
    assert union_length([]) == 0


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span("op", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),   # overlaps a: counted once
        Span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        Span("d", 1.5, 2.5, parent=1),   # a grandchild: a's business
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 6)
    assert own[1] == pytest.approx(2 - 1)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(4)
    assert own[4] == pytest.approx(1)


def test_self_times_sum_to_the_root_duration_for_nested_spans():
    spans = [
        Span("op", 0.0, 10.0),
        Span("half", 0.0, 6.0, parent=0),
        Span("layer", 1.0, 5.0, parent=1),
        Span("half", 6.0, 10.0, parent=0),
        Span("layer", 6.5, 9.0, parent=3),
    ]
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_wraps_records_and_restores():
    module = types.SimpleNamespace()
    module.work = lambda depth: module.work(depth - 1) if depth else "done"
    original = module.work
    tracer = Tracer()
    seen = []
    tracer.wrap(module, "work", "layer", after=lambda result, depth:
                seen.append(result))
    with tracer.span("op"):
        assert module.work(2) == "done"
    tracer.restore()
    assert module.work is original
    # The recursive calls pass through: one span for the outer call.
    assert [span.name for span in tracer.spans] == ["op", "layer"]
    assert tracer.spans[1].parent == 0
    assert seen == ["done"]
    totals = tracer.totals(0)
    own = tracer.self_totals(0)
    assert totals["op"] == pytest.approx(own["op"] + totals["layer"])


# -- failure accounting -------------------------------------------------------


def test_tally_counts_failed_ops_over_attempted():
    assert tally([[], ["wrong output"], []], []) == {
        "attempted": 3, "failed": 1, "failed_ratio": pytest.approx(1 / 3)}


def test_tally_charges_each_leak_to_one_passing_op():
    counted = tally([[], [], ["raised"]], ["/dev/shm gained x"])
    assert counted["failed"] == 2
    assert counted["failed_ratio"] == pytest.approx(2 / 3)
    capped = tally([[]], ["results/ changed", "git status changed"])
    assert capped == {"attempted": 1, "failed": 1, "failed_ratio": 1.0}


def test_tally_of_a_clean_run_is_zero():
    assert tally([[]] * 5, [])["failed_ratio"] == 0.0


def test_a_traced_op_whose_exact_count_differs_fails():
    outcome = run.Outcome()
    same = {"kernel.delta_cycles": 120, "kernel.run.busy_s": 1.0}
    outcome.add_op(1.0, True, [], dict(same))
    outcome.add_op(1.0, True, [], {**same, "kernel.run.busy_s": 1.3})
    outcome.add_op(1.0, True, [], {**same, "kernel.delta_cycles": 121})
    outcome.add_op(1.0, False, [])
    assert [bool(problems) for problems in outcome.problems] == [
        False, False, True, False]
    assert "kernel.delta_cycles" in outcome.problems[2][0]
    assert tally(outcome.problems, [])["failed"] == 1


def test_bus_traffic_is_checked_against_the_committed_row():
    expected = worker._bus_traffic_expected()
    row = expected["6a"]
    stats = {
        "transactions": int(row["bus transactions"]),
        "words": int(row["bus words"]),
        "wait_fs": float(row["bus wait [ms]"]) * 1e12,
    }
    assert worker.check_bus_traffic("6a", stats, expected) == []
    fewer = {**stats, "transactions": stats["transactions"] - 1}
    problems = worker.check_bus_traffic("6a", fewer, expected)
    assert len(problems) == 1 and "bus transactions" in problems[0]
    assert worker.check_bus_traffic("9z", stats, expected)


# -- the contract -------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.RUNNERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(run.EXACT_COUNTS) <= set(run.PER_LAYER)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
