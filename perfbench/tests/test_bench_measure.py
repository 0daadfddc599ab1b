"""Span bookkeeping, self time and the percentile summary."""

import pytest

from measure import Span, Tracer, percentile, self_times, summarize, totals_by_name


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cmd", 0.0, 10.0, None, 0),
        Span("model", 1.0, 4.0, 0, 0),
        Span("reporting", 5.0, 9.0, 0, 0),
        Span("reporting.inner", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert totals_by_name(spans, self_times(spans)) == {
        "cmd": 3.0, "model": 3.0, "reporting": 3.0, "reporting.inner": 1.0}


def test_self_times_sum_to_root_duration():
    spans = [Span("a", 0.0, 8.0, None, 1), Span("b", 1.0, 3.0, 0, 1),
             Span("c", 3.5, 7.5, 0, 1), Span("d", 4.0, 5.0, 2, 1)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_totals_filter_by_command():
    spans = [Span("x", 0.0, 1.0, None, 0), Span("x", 2.0, 4.0, None, 1)]
    assert totals_by_name(spans, self_times(spans), command=1) == {"x": 2.0}


def test_tracer_records_parents_and_inherits_command():
    tracer = Tracer()
    with tracer.span("cmd", command=7):
        tracer.wrap("layer", lambda x: x + 1)(1)
    root, layer = tracer.spans
    assert (root.parent, layer.parent) == (None, 0)
    assert root.command == layer.command == 7
    assert root.start <= layer.start <= layer.end <= root.end


def test_graft_offsets_parents_and_sets_the_command():
    tracer = Tracer()
    with tracer.span("cmd.a", command=0):
        pass
    tracer.graft([("cmd.b", 1.0, 5.0, None), ("sim", 2.0, 4.0, 0)], 1)
    assert tracer.spans[1:] == [Span("cmd.b", 1.0, 5.0, None, 1),
                                Span("sim", 2.0, 4.0, 1, 1)]
    assert self_times(tracer.spans)[1:] == [2.0, 2.0]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("cmd", command=0):
        assert tracer.wrap("layer", abs)(-2) == 2
    tracer.graft([("child", 0.0, 1.0, None)], 0)
    assert tracer.spans == []


def test_summary_states_count_and_no_tail_below_twenty_samples():
    summary = summarize([3.0, 1.0, 2.0] * 3)
    assert summary == {"n": 9, "p50": 2.0, "tail": None}


def test_summary_tail_needs_ten_samples_beyond_it():
    assert summarize(list(range(20)))["tail"] == {"pct": 50.0, "value": 9}
    summary = summarize([float(i) for i in range(1, 101)])
    assert summary["n"] == 100
    assert summary["tail"] == {"pct": 90.0, "value": 90.0}
    assert summarize(list(range(1000)))["tail"]["pct"] == 99.0


def test_percentile_is_nearest_rank():
    values = [10, 20, 30, 40]
    assert [percentile(values, p) for p in (1, 25, 50, 75, 100)] == [
        10, 10, 20, 30, 40]


def test_summary_rejects_no_samples():
    with pytest.raises(ValueError):
        summarize([])
