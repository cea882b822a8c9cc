import threading
import time
import types

import pytest

from perfbench.tracing import (
    Span,
    Tracer,
    covered_length,
    install,
    nesting_violations,
    self_times,
    totals_by_name,
    uninstall,
)


def span(id, start, end, parent=None, thread=1, name="f"):
    return Span(id, name, start, end, parent, None, thread, False)


def test_covered_length_merges_and_clips():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered_length(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered_length(0, 10, [(3, 3), (12, 15)]) == 0


def test_self_time_subtracts_children_once():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, parent=1), span(3, 4.0, 8.0, parent=1),
             span(4, 5.0, 6.0, parent=3)]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: pytest.approx(3.0),
                     4: pytest.approx(1.0)}
    assert nesting_violations(spans, selfs) == []


def test_overlapping_spans_from_two_worker_threads():
    # thread 1 runs a trial over [0, 10] with harvests [1, 4] and [5, 9];
    # thread 2 runs another trial over [2, 12] with one harvest [3, 11].
    # A span on thread 2 linked to thread 1's trial does not eat its self time.
    spans = [span(1, 0.0, 10.0, thread=1, name="trial"),
             span(2, 1.0, 4.0, parent=1, thread=1, name="harvest"),
             span(3, 5.0, 9.0, parent=1, thread=1, name="harvest"),
             span(4, 2.0, 12.0, thread=2, name="trial"),
             span(5, 3.0, 11.0, parent=4, thread=2, name="harvest"),
             span(6, 6.0, 7.0, parent=1, thread=2, name="stray")]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(2.0)
    totals = totals_by_name(spans, selfs)
    assert totals["trial"]["s"] == pytest.approx(20.0)
    assert totals["trial"]["self_s"] == pytest.approx(5.0)
    assert totals["harvest"]["calls"] == 3


def test_nesting_violation_is_reported():
    spans = [span(1, 0.0, 1.0), span(2, 0.0, 0.8, parent=1), span(3, 0.5, 2.0, parent=1)]
    assert nesting_violations(spans) != []


def _fake_module():
    mod = types.ModuleType("fake.layer")

    def inner(x):
        time.sleep(0.02)
        return x + 1

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) * 2

    def broken():
        raise ValueError("boom")

    for fn in (inner, outer, broken):
        fn.__module__ = "fake.layer"
        setattr(mod, fn.__name__, fn)
    return mod


def test_tracer_on_two_threads_keeps_parents_per_thread():
    mod = _fake_module()
    alias = types.ModuleType("fake.caller")
    alias.inner = mod.inner  # a second binding of the same function
    tracer = Tracer()
    patched = install(tracer, [mod, alias], [mod.inner, mod.outer],
                      {mod.outer: {"trial_of": lambda args, kwargs: f"trial-{args[0]}"}})
    assert alias.inner is mod.inner and len(patched) == 3
    barrier = threading.Barrier(2)

    def work(x):
        barrier.wait(timeout=10)
        assert mod.outer(x) == 2 * (x + 1)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        uninstall(patched)
    assert not hasattr(mod.inner, "__wrapped__")

    by_id = {s.id: s for s in tracer.spans}
    outers = [s for s in tracer.spans if s.name == "layer.outer"]
    inners = [s for s in tracer.spans if s.name == "layer.inner"]
    assert len(outers) == len(inners) == 2
    assert {s.trial for s in outers} == {"trial-0", "trial-1"}
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "layer.outer" and parent.thread == s.thread
        assert s.trial == parent.trial
    # the two outer spans overlap in time, on different threads
    a, b = outers
    assert max(a.start, b.start) < min(a.end, b.end)
    selfs = self_times(tracer.spans)
    for s in outers:
        assert selfs[s.id] >= 0.009 and selfs[s.id] < (s.end - s.start) - 0.019
    assert nesting_violations(tracer.spans, selfs) == []


def test_errors_are_recorded_and_reraised():
    mod = _fake_module()
    tracer = Tracer()
    patched = install(tracer, [mod], [mod.broken])
    try:
        with pytest.raises(ValueError):
            mod.broken()
    finally:
        uninstall(patched)
    assert totals_by_name(tracer.spans)["layer.broken"]["errors"] == 1


def test_recording_off_keeps_no_spans_or_counts():
    tracer = Tracer()
    traced = tracer.wrap(lambda: 1, name="x.f")
    tracer.recording = False
    assert traced() == 1
    tracer.add("k", 1.0)
    assert tracer.spans == [] and tracer.counts == {}
