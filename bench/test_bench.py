"""Tests of the benchmark's own helpers: python3 -m pytest bench/test_bench.py"""

import json
from pathlib import Path

import pytest

import metrics
from tracing import Span, Tracer, root_ids, self_times


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert metrics.percentile(samples, 90) == 90
    assert metrics.percentile(reversed(samples), 50) == 50
    with pytest.raises(ValueError):
        metrics.percentile(samples[:-1], 90)
    assert metrics.percentile(samples[:-1], 90, min_beyond=9) == 90
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0),
        Span(1, 0, "op", "a", 1.0, 4.0),
        Span(2, 1, "op", "a.inner", 2.0, 3.0),
        Span(3, 0, "op", "b", 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == spans[0].duration
    assert root_ids(spans) == {0: 0, 1: 0, 2: 0, 3: 0}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0),
        Span(1, 0, "op", "a", 1.0, 4.0),
        Span(2, 0, "op", "b", 3.0, 12.0),
    ]
    assert self_times(spans)[0] == 1.0


def test_tracer_nests_spans_and_shares_trace_ids():
    tracer = Tracer()
    with tracer.span("bench.op", trace_id="op7"):
        with tracer.span("experiment.trial", trace_id=f"{tracer.trace_id}.t0"):
            with tracer.span("channel.simulate"):
                pass
        with tracer.span("experiment.report_csv"):
            pass
    root, trial, sim, csv = tracer.spans
    assert [s.parent_id for s in tracer.spans] == [None, 0, 1, 0]
    assert [s.trace_id for s in tracer.spans] == ["op7", "op7.t0", "op7.t0", "op7"]
    assert abs(sum(self_times(tracer.spans).values()) - root.duration) < 1e-9


@pytest.mark.parametrize("name", ["ops_per_s", "receiver.bit_start.self_ms", "a-1.B_2", "9x"])
def test_metric_name_accepts(name):
    assert metrics.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", ".a", "_a", "a b", "ms/op", "x" * 65, "é"])
def test_metric_name_rejects(name):
    with pytest.raises(ValueError):
        metrics.check_metric_name(name)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert end_to_end == list(metrics.END_TO_END)
    assert per_layer == list(metrics.PER_LAYER)
    for name, _, _ in metrics.END_TO_END + metrics.PER_LAYER:
        metrics.check_metric_name(name)
