"""Self-time arithmetic and wrapper behaviour of the benchmark's span tracer.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import types

import pytest

from spans import Span, Tracer, covered_length, self_times, totals_by_name


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 6.5, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]
    totals = totals_by_name(spans + [Span("b", 7.0, 7.5, 0)])
    assert totals["b"].calls == 2
    assert totals["b"].total_s == 2.0
    assert totals["root"].self_s == 10.0 - 3.0 - 1.5 - 0.5


def test_wrapper_records_nesting_counts_and_restores():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    module = types.SimpleNamespace(
        inner=lambda n: n * 2,
        gen=lambda n: (i for i in range(n)),
    )
    originals = (module.inner, module.gen)
    tracer.wrap(module, "inner", "inner", count=lambda a, kw, r: {"inner.n": a[0]})
    tracer.wrap(module, "gen", "gen", count=lambda a, kw, r: {"gen.items": len(r)}, drain=True)
    with tracer.span("outer"):
        assert module.inner(3) == 6
        assert list(module.gen(4)) == [0, 1, 2, 3]
    tracer.restore()
    assert (module.inner, module.gen) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None),
        ("inner", 0),
        ("gen", 0),
    ]
    assert tracer.counts == {"inner.n": 3, "gen.items": 4}
    assert self_times(tracer.spans) == [5.0 - 1.0 - 1.0, 1.0, 1.0]


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("bad input")

    module = types.SimpleNamespace(boom=boom)
    tracer.wrap(module, "boom", "boom")
    with pytest.raises(ValueError):
        module.boom()
    tracer.restore()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []
