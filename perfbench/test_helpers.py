"""Self-tests for the benchmark's helpers.

Run from the root of a checkout with::

    python3 -m pytest -q perfbench/test_helpers.py

They need neither numpy nor the program under test, except the last
one, which runs ``run.py`` where ``src/`` is missing.
"""

import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import catalogue
import helpers

HERE = Path(__file__).resolve().parent


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert helpers.tail_percentile(n) == expected


def test_tail_percentile_counts_beyond_with_nearest_rank():
    values = sorted(float(i) for i in range(1, 101))
    percentile = helpers.tail_percentile(len(values))
    tail = helpers.nearest_rank(values, percentile)
    assert sum(v > tail for v in values) >= helpers.MIN_BEYOND
    assert tail == 90.0


def test_summarize_reports_counts_and_fixed_rung():
    values = [float(i) for i in range(1, 51)]
    summary = helpers.summarize(values, fixed_percentile=90.0)
    assert summary["n"] == 50
    assert summary["median"] == statistics.median(values)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail"] == 45.0
    assert summary["tail_beyond"] == 5
    assert summary["tail_supported"] is False
    assert helpers.summarize(values)["tail_percentile"] == 75.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        helpers.summarize([])


# -- self time from spans ----------------------------------------------------


def _span(span_id, parent, start, end, layer="x", name="n"):
    return {"id": span_id, "parent": parent, "layer": layer,
            "stage": None, "name": name, "start": start, "end": end,
            "attrs": {}}


def test_self_time_subtracts_children_once():
    records = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),   # overlaps span 2: union is 1..6
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = helpers.self_times(records)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_self_time_table_sums_to_total():
    records = [
        _span(1, None, 0.0, 10.0, layer="core"),
        _span(2, 1, 0.0, 6.0, layer="decision", name="route"),
        _span(3, 1, 6.0, 8.0, layer="decision", name="reduce"),
    ]
    rows = helpers.self_time_table(records)
    assert rows[0]["level"] == "total"
    assert rows[0]["self_ms"] == pytest.approx(10e3)
    layers = {r["layer"]: r for r in rows if r["level"] == "layer"}
    assert layers["decision"]["self_ms"] == pytest.approx(8e3)
    assert layers["core"]["self_ms"] == pytest.approx(2e3)
    calls = [r for r in rows if r["level"] == "call"]
    assert sum(r["share"] for r in calls) == pytest.approx(1.0)
    assert len(helpers.render_table(rows)) == len(rows) + 1


def test_spans_off_records_nothing():
    spans = helpers.Spans(False)
    with spans.root("core", "run"), spans.span("decision", "route"):
        pass
    assert spans.add("serve", "request", 0.0, 1.0) is None
    assert spans.records == []


def test_spans_hang_worker_threads_under_the_open_root():
    spans = helpers.Spans(True)

    def stage():
        with spans.span("decision", "route", stage="routes"):
            pass

    with spans.root("core", "run") as root:
        worker = threading.Thread(target=stage)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with spans.span("bench", "glue") as glue:
            with spans.span("decision", "reduce"):
                pass
    by_name = {r["name"]: r for r in spans.take()}
    assert by_name["run"]["parent"] is None
    assert by_name["route"]["parent"] == root
    assert by_name["glue"]["parent"] == root
    assert by_name["reduce"]["parent"] == glue
    assert spans.records == []


# -- Poisson schedule --------------------------------------------------------


def test_poisson_schedule_is_seeded_sorted_and_bounded():
    first = helpers.poisson_schedule(50.0, 20.0, seed=7)
    assert first == helpers.poisson_schedule(50.0, 20.0, seed=7)
    assert first != helpers.poisson_schedule(50.0, 20.0, seed=8)
    assert first == sorted(first)
    assert all(0.0 < t < 20.0 for t in first)


def test_poisson_schedule_has_the_requested_rate():
    rate, duration = 100.0, 100.0
    times = helpers.poisson_schedule(rate, duration, seed=3)
    expected = rate * duration
    # Poisson count: standard deviation sqrt(expected) = 100.
    assert abs(len(times) - expected) < 4 * expected ** 0.5
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert statistics.fmean(gaps) == pytest.approx(1 / rate, rel=0.05)
    # Exponential gaps: the standard deviation equals the mean.
    assert statistics.stdev(gaps) == pytest.approx(1 / rate, rel=0.1)


def test_poisson_schedule_rejects_nonpositive():
    with pytest.raises(ValueError):
        helpers.poisson_schedule(0.0, 1.0, seed=1)


def test_zipf_weights_normalized_and_decreasing():
    weights = helpers.zipf_weights(100, 1.0)
    assert sum(weights) == pytest.approx(1.0)
    assert all(a > b for a, b in zip(weights, weights[1:]))


# -- the contract file -------------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(catalogue.WORKLOADS)
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"])
                  for m in spec["end_to_end"]}
    assert end_to_end == {name: entry[:3] for name, entry
                          in catalogue.END_TO_END.items()}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert per_layer == {name: entry[:2] for name, entry
                         in catalogue.PER_LAYER.items()}
    assert max(end_to_end.values(), key=lambda e: e[2])[2] == \
        end_to_end["setup_s"][2]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "pipeline_batch", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert done.stdout == ""
