import pytest

from spans import Span, Tracer, layer_metrics, self_times, span_problems, union_length


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (1.5, 2.5)]) == 3
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("engine", 0.0, 10.0, None, "j"),  # 0
        Span("operators.apply", 1.0, 4.0, 0, "j"),  # 1
        Span("operators.check", 2.0, 3.0, 1, "j"),  # 2
        Span("engine.fitness", 5.0, 9.0, 0, "j"),  # 3
        Span("interpreter", 5.5, 6.5, 3, "j"),  # 4
        Span("interpreter", 6.5, 8.0, 3, "j"),  # 5
        Span("engine", 20.0, 21.0, None, "k"),  # 6: a second root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])
    # Self times add up to the time covered by root spans.
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_children_outside_the_parent_are_clipped():
    spans = [Span("a", 0.0, 2.0, None, None), Span("b", 1.0, 5.0, 0, None)]
    assert self_times(spans) == pytest.approx([1.0, 4.0])


def test_layer_metrics_add_up_to_the_wall_time():
    spans = [
        Span("engine", 0.0, 10.0, None, "j"),
        Span("operators.apply", 1.0, 4.0, 0, "j", exc="TypeCheckFailed"),
        Span("operators.enumerate", 4.0, 4.5, 0, "j", info=0),
        Span("engine.fitness", 5.0, 9.0, 0, "j", info="p1"),
        Span("interpreter", 5.5, 6.5, 3, "j", info=["budget_exhausted", 100]),
        Span("interpreter", 6.5, 8.0, 3, "j", info=["returned", 4]),
    ]
    m = layer_metrics(spans, wall_s=12.0, overhead_ratio=1.1, variants=2, original_digests={"j": "p0"})
    # Every time metric but the wall itself is a self time or the remainder.
    parts = [value for name, (value, unit) in m.items() if unit == "s" and name != "trace.wall_s"]
    assert sum(parts) == pytest.approx(12.0)
    assert m["trace.unattributed_s"][0] == pytest.approx(2.0)
    assert m["interpreter.exhausted_step_share"][0] == pytest.approx(100 / 104)
    assert m["operators.skip.TypeCheckFailed"][0] == 1
    assert m["operators.skip.EmptyOps"][0] == 1
    assert m["engine.distinct_ratio"][0] == 1.0
    assert m["interpreter.runs_per_variant"][0] == 1.0


class _Box:
    @staticmethod
    def double(x):
        return 2 * x


def test_wrap_records_spans_only_while_active_and_restores():
    tracer = Tracer()
    original = _Box.double
    tracer.wrap(_Box, "double", "box")
    assert _Box.double(2) == 4 and tracer.spans == []
    tracer.active, tracer.job = True, "j"
    assert _Box.double(3) == 6
    assert [(s.name, s.job, s.parent) for s in tracer.spans] == [("box", "j", None)]
    tracer.restore()
    assert _Box.double is original


def test_duplicate_step_share_counts_steps_on_programs_seen_before():
    spans = [
        Span("engine", 0.0, 10.0, None, "j"),  # 0
        Span("engine.fitness", 1.0, 2.0, 0, "j", info="p1"),  # 1
        Span("interpreter", 1.0, 2.0, 1, "j", info=["budget_exhausted", 100]),
        Span("engine.fitness", 3.0, 4.0, 0, "j", info="p1"),  # 3: the same program again
        Span("interpreter", 3.0, 4.0, 3, "j", info=["budget_exhausted", 100]),
        Span("engine.fitness", 5.0, 6.0, 0, "j", info="p0"),  # 5: the input program
        Span("interpreter", 5.0, 6.0, 5, "j", info=["returned", 50]),
    ]
    m = layer_metrics(spans, wall_s=10.0, overhead_ratio=1.0, variants=4, original_digests={"j": "p0"})
    assert m["engine.duplicate_step_share"][0] == pytest.approx(150 / 250)
    assert m["engine.distinct_ratio"][0] == pytest.approx(2 / 4)


def test_span_problems_flags_time_counted_twice_or_outside_the_window():
    windows = {"setup": (0.0, 1.0), "j": (2.0, 5.0), "k": (6.0, 8.0)}
    good = [
        Span("parser", 0.1, 0.5, None, "setup"),
        Span("engine", 2.0, 5.0, None, "j"),
        Span("interpreter", 3.0, 4.0, 1, "j"),
        Span("engine", 6.5, 7.0, None, "k"),
    ]
    assert span_problems(good, windows) == []
    outside = good[:3] + [Span("engine", 5.5, 7.0, None, "k")]
    assert len(span_problems(outside, windows)) == 1
    overlapping = good + [Span("printer", 6.8, 7.5, None, "k")]
    assert any("overlap" in p for p in span_problems(overlapping, windows))
    escaped_child = good[:2] + [Span("interpreter", 4.5, 5.5, 1, "j")] + good[3:]
    assert any("outside its parent" in p for p in span_problems(escaped_child, windows))
    untagged = good + [Span("engine", 7.0, 7.5, None, "z")]
    assert len(span_problems(untagged, windows)) == 1
