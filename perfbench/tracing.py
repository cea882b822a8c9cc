"""Spans around hubnet's public functions, and the arithmetic on them.

The tracer replaces a function at every module binding that callers look
it up through (``hubnet.bench.harvest``, ``hubnet.reservoir.spectral_radius``,
``hubnet.topology.prune`` ...), so the program itself is not edited.  A
span records its name, start, end, parent span, trial id and thread.  The
parent is the innermost open span on the same thread; spans that a worker
thread opens have no parent on the thread that started the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id name start end parent trial thread error")


def span_name(fn) -> str:
    """``<layer>.<function>``, the layer being the defining module's last part."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Keeps spans and counts in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, amount: float) -> None:
        """Add to a count; ignored while recording is off."""
        if not self.recording:
            return
        with self._lock:
            self.counts[key] += amount

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
        return local

    def set_trial(self, trial) -> None:
        """Tag the spans this thread records from now on with ``trial``."""
        self._state().trial = trial

    def wrap(self, fn, name: str | None = None, observe=None, trial_of=None):
        """Return ``fn`` wrapped in a span.

        ``observe(tracer, args, kwargs, result, seconds)`` runs after every
        call that returned.  ``trial_of(args, kwargs)``
        names the trial that the call and everything under it belongs to.
        """
        name = name or span_name(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            outer_trial = state.trial
            if trial_of is not None:
                state.trial = trial_of(args, kwargs)
            stack.append(sid)
            error = False
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                if tracer.recording:
                    tracer.spans.append(Span(sid, name, start, end, parent, state.trial,
                                             threading.get_ident(), error))
                state.trial = outer_trial
            if observe is not None:
                observe(tracer, args, kwargs, result, end - start)
            return result

        return traced


def public_functions(modules) -> list:
    """Functions each module lists in ``__all__`` and defines itself."""
    found = []
    for mod in modules:
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found.append(obj)
    return found


def install(tracer: Tracer, modules, functions, options=None) -> list:
    """Wrap every binding of ``functions`` found in ``modules``.

    ``options`` maps a function to keyword arguments for ``Tracer.wrap``.
    Returns the ``(module, attribute, original)`` triples, for ``uninstall``.
    """
    options = options or {}
    wrappers = {id(fn): (fn, tracer.wrap(fn, **options.get(fn, {}))) for fn in functions}
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                patched.append((mod, attr, value))
    return patched


def uninstall(patched) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by child spans on its thread."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(s.start, s.end, children[s.id])
            for s in spans}


def nesting_violations(spans, selfs=None, slack: float = 1e-9) -> list[str]:
    """Parents whose children's summed self time exceeds the parent's duration."""
    selfs = self_times(spans) if selfs is None else selfs
    by_id = {s.id: s for s in spans}
    child_self = defaultdict(float)
    for s in spans:
        if s.parent in by_id:
            child_self[s.parent] += selfs[s.id]
    bad = []
    for pid, total in child_self.items():
        p = by_id[pid]
        if total > (p.end - p.start) + slack:
            bad.append(f"{p.name} span {pid}: children self {total:.6f} s "
                       f"> duration {p.end - p.start:.6f} s")
    return bad


def totals_by_name(spans, selfs=None) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds, calls and errors."""
    selfs = self_times(spans) if selfs is None else selfs
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
    for s in spans:
        t = out[s.name]
        t["s"] += s.end - s.start
        t["self_s"] += selfs[s.id]
        t["calls"] += 1
        t["errors"] += int(s.error)
    return dict(out)
