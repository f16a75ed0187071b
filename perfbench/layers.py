"""Per-layer attribution measured from outside the program.

Two tools:

* :class:`LayerClock` wraps public functions and methods of the
  program's layers for the duration of a ``with`` block and charges
  each call's *self time* (its duration minus the time spent in wrapped
  calls it made) to the layer it belongs to.  Re-entrant calls within
  one layer are charged once, to the outermost call, so nested helper
  methods do not double count.  Nothing in the program changes; the
  wrappers are removed on exit.
* :func:`rollup_spans` turns stitched request traces (the span records
  served by the service's ``/debug/traces/{id}``) into self time per
  span name.
"""

import functools
import time
from collections import defaultdict


class LayerClock:
    """Self-time accounting over wrapped callables.

    Usage::

        clock = LayerClock()
        clock.wrap(module, "solve", "solver")
        clock.wrap(SomeClass, "lookup", "models.lookup")
        with clock:
            ...            # wrapped calls are timed here
        clock.self_s["solver"], clock.calls["models.lookup"]
    """

    def __init__(self, timer=time.perf_counter):
        self.timer = timer
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []          # [layer, start, child_seconds]
        self._patches = []        # (owner, attribute, wrapper) to install
        self._originals = []      # (owner, attribute, original) installed

    def active(self, layer):
        """True while a call charged to ``layer`` is on the stack."""
        return any(frame[0] == layer for frame in self._stack)

    def wrap(self, owner, attribute, layer, on_call=None):
        """Charge calls of ``owner.attribute`` to ``layer``.

        ``on_call(clock, args, kwargs)`` (optional) runs before every
        call, re-entrant ones included, for counting work items.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        clock = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(clock, args, kwargs)
            stack = clock._stack
            if stack and stack[-1][0] == layer:
                return original(*args, **kwargs)
            frame = [layer, clock.timer(), 0.0]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock.timer() - frame[1]
                clock.self_s[layer] += elapsed - frame[2]
                clock.total_s[layer] += elapsed
                clock.calls[layer] += 1
                if stack:
                    stack[-1][2] += elapsed

        self.replace(owner, attribute, wrapper)
        return wrapper

    def replace(self, owner, attribute, replacement):
        """Install ``replacement`` as ``owner.attribute`` inside the block."""
        self._patches.append((owner, attribute, replacement))

    def __enter__(self):
        for owner, attribute, wrapper in self._patches:
            original = owner.__dict__[attribute] \
                if isinstance(owner, type) else getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        return False


def _nest(children):
    """Re-parent siblings whose interval lies inside another sibling's.

    Services record some spans under the request root even when they
    run inside a sibling span (a re-solve queued while a feed is being
    applied); nesting them by interval containment lets the sibling's
    self time exclude them.  Returns ``{span_id: [direct children]}``
    for the nested forest of one parent's children.
    """
    nested = defaultdict(list)
    tops = []
    stack = []
    for span in sorted(children, key=lambda c: (c["start_s"], -c["end_s"])):
        while stack and not (span["start_s"] >= stack[-1]["start_s"]
                             and span["end_s"] <= stack[-1]["end_s"]):
            stack.pop()
        if stack:
            nested[stack[-1]["id"]].append(span)
        else:
            tops.append(span)
        stack.append(span)
    return tops, nested


def rollup_spans(spans):
    """Self seconds and counts per span name for one stitched trace.

    ``spans`` are span records (``{"id", "parent", "name", "start_s",
    "end_s"}``).  A span's self time is its duration minus the union of
    the intervals its children cover, clipped to the span itself.
    Spans grafted from another process keep their parent link, so the
    roll-up works across the process boundary; siblings are first
    nested by interval containment (see :func:`_nest`).  Returns
    ``(self_s, counts)`` dictionaries keyed by span name.
    """
    spans = [s for s in spans
             if s.get("start_s") is not None and s.get("end_s") is not None]
    declared = defaultdict(list)
    for span in spans:
        declared[span.get("parent")].append(span)
    children = defaultdict(list)
    for parent, group in declared.items():
        tops, nested = _nest(group)
        if parent is not None:
            children[parent].extend(tops)
        for span_id, inner in nested.items():
            children[span_id].extend(inner)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for span in spans:
        start, end = span["start_s"], span["end_s"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start_s"]):
            c_start = max(child["start_s"], cursor)
            c_end = min(child["end_s"], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        self_s[span["name"]] += max(0.0, (end - start) - covered)
        counts[span["name"]] += 1
    return dict(self_s), dict(counts)


class EngineCounter:
    """Records every simulation engine the database layer creates, so a
    run's executed event count can be read without touching the program.

    Replaces ``repro.db.engine.SimulationEngine`` with a subclass that
    only remembers its instances; restored on exit.
    """

    def __init__(self):
        self.engines = []

    def __enter__(self):
        from repro.db import engine as db_engine

        base = db_engine.SimulationEngine
        engines = self.engines

        class _Recorded(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        self._module = db_engine
        self._base = base
        db_engine.SimulationEngine = _Recorded
        return self

    def __exit__(self, *exc):
        self._module.SimulationEngine = self._base
        return False

    def take(self):
        """Events executed by the engines created since the last take."""
        events = sum(e.events_processed for e in self.engines)
        self.engines.clear()
        return events
