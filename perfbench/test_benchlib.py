"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from benchlib import (  # noqa: E402
    Ledger,
    Span,
    Tracer,
    median,
    percentile,
    root_wall,
    self_time_by_name,
    self_times,
)


def nested_spans() -> list[Span]:
    # root [0, 10] holds a [1, 4] (which holds a.inner [2, 3]) and b [5, 9]
    return [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.inner", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 9.0),
    ]


def test_self_time_subtracts_children_only_one_level_down():
    assert self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_add_up_to_root_wall():
    spans = nested_spans() + [Span(4, None, "second-root", 20.0, 22.5)]
    assert sum(self_times(spans)) == root_wall(spans) == 12.5


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "x", 1.0, 5.0),
        Span(2, 0, "y", 3.0, 7.0),
    ]
    assert self_times(spans)[0] == 4.0


def test_self_time_by_name_sums_repeated_layers():
    spans = nested_spans() + [Span(4, 0, "a", 9.0, 9.5)]
    totals = self_time_by_name(spans)
    assert totals["a"] == 2.5
    assert totals["root"] == 2.5


def test_tracer_nests_wrapped_calls_and_counts_outside_the_layer():
    tracer = Tracer(enabled=True)
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap(
        "outer",
        lambda x: inner(x) * 2,
        observe=lambda args, kwargs, result: tracer.count("calls", 1),
    )
    with tracer.span("root"):
        assert outer(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("root", None), ("outer", 0), ("inner", 1), ("trace.observe", 0)]
    assert tracer.counters == {"calls": 1}
    total = sum(self_times(tracer.spans))
    assert total == pytest.approx(root_wall(tracer.spans), abs=1e-12)


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda: 7, observe=lambda *a: tracer.count("n", 1))
    with tracer.span("root"):
        assert wrapped() == 7
    assert tracer.spans == [] and tracer.counters == {}


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="needs at least 100 samples"):
        percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError, match="needs at least 20 samples"):
        percentile(list(range(19)), 0.5)
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.9) == 90.0
    assert sum(v > 90.0 for v in values) == 10


def test_percentile_of_120_requests_leaves_twelve_above_p90():
    values = [float(v) for v in range(120, 0, -1)]
    p90 = percentile(values, 0.9)
    assert p90 == 108.0
    assert sum(v > p90 for v in values) == 12
    assert percentile(values, 0.5) == 60.0


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_ledger_counts_a_failed_check_as_a_failed_operation():
    ledger = Ledger()
    assert ledger.record(True, "command")
    assert not ledger.record("b" == "a", "output differs")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failed_ratio == 0.5
    assert ledger.failures == ["output differs"]


def test_changed_output_fails_the_run(tmp_path):
    workloads = pytest.importorskip("workloads")
    run = workloads.Run(workloads.WORKLOADS["linear-ingest"], seed=0)
    run.check_outputs({"out/model.json": "aa", "stdout/train": "bb"})
    run.rounds = 1
    run.check_outputs({"out/model.json": "aa", "stdout/train": "cc"})
    assert (run.ledger.attempted, run.ledger.failed) == (4, 1)
    assert "stdout/train" in run.ledger.failures[0]

    cache = tmp_path / "digests.json"
    run.check_against_earlier_runs(cache, {"out/model.json": "aa"})
    run.check_against_earlier_runs(cache, {"out/model.json": "zz"})
    assert (run.ledger.attempted, run.ledger.failed) == (5, 2)


def test_instrumented_restores_every_trace_point():
    workloads = pytest.importorskip("workloads")
    before = [getattr(m, a) for m, a, _ in workloads.TRACE_POINTS]
    with workloads.instrumented(Tracer(enabled=True)):
        assert all(getattr(m, a) is not f
                   for (m, a, _), f in zip(workloads.TRACE_POINTS, before))
    assert [getattr(m, a) for m, a, _ in workloads.TRACE_POINTS] == before


def test_reported_metrics_are_the_declared_ones():
    import json

    workloads = pytest.importorskip("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = workloads.Run(workloads.WORKLOADS["rf-cv"], seed=0)
    run.quality.update(cv=1.0, cv_alt=2.0)
    run.times = {key: [1.0] for key in ("setup", "ingest", "cv", "cv_alt", "train", "cold")}
    run.probes = {key: [7.0, 8.0] for key in run.times}
    run.serve_rounds = [[0.001] * workloads.SERVE_REQUESTS]
    end_to_end = set(workloads.end_to_end(run, import_s=0.5)) | {"peak_rss_MB"}
    assert end_to_end == {m["name"] for m in declared["end_to_end"]}
    assert not end_to_end & set(workloads.unbounded(run))
    per_layer = workloads.per_layer(run, untraced_s=1.0, traced_s=1.0)
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(per_layer.values(), declared["per_layer"]))
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])


def test_paused_tracer_charges_calls_to_the_caller():
    tracer = Tracer(enabled=True)
    layer = tracer.wrap("layer", lambda: None)
    with tracer.span("root"):
        with tracer.paused():
            layer()
        layer()
    assert [s.name for s in tracer.spans] == ["root", "layer"]
    assert tracer.enabled


def test_step_times_are_scaled_by_the_probes_beside_them():
    import benchlib

    workloads = pytest.importorskip("workloads")
    ref = benchlib.PROBE_REFERENCE_MS
    run = workloads.Run(workloads.WORKLOADS["rf-cv"], seed=0)
    run.times = {key: [1.0, 3.0] for key in ("setup", "ingest", "cv", "cv_alt", "train", "cold")}
    run.probes = {key: [ref, ref] for key in run.times}
    run.probes["cv"] = [2.0 * ref, 2.0 * ref]  # the machine ran at half speed beside cv
    run.serve_rounds = [[0.003] * 120, [0.001] * 120, [0.002] * 120]
    metrics = workloads.end_to_end(run, import_s=0.0)
    assert metrics["cv_s"][0] == 1.0
    assert metrics["train_s"][0] == 2.0
    factor = benchlib.scale_factor(run.round_probes())
    assert factor == pytest.approx(10.0 / 12.0)  # setup's probes are left out
    assert metrics["predict_p90_ms"][0] == pytest.approx(2.0 * factor)
    with pytest.raises(ValueError):
        benchlib.scale_factor([])
