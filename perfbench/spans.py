"""Span recording from outside the program.

:class:`SpanRecorder` wraps public methods of the program's classes for
the duration of a traced run: each call records a span (name, start,
end, parent span, trace id) in memory.  Spans of one gateway flush or
one sampling campaign share a trace id.  :func:`self_times` computes a
span's self time as its duration minus the part of it covered by child
spans, and :func:`layer_table` folds spans into the per-layer metrics.

Wrappers are installed on classes, so they see every instance; the
recorder restores the original attributes when it is uninstalled.
"""

import contextlib
import functools
import inspect
import time

from perfbench.stats import quantile, tail_quantile


class SpanRecorder(object):
    """In-memory spans ``(span_id, parent_id, trace_id, name, start, end)``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._stack = []
        self._next_span = 1
        self._next_trace = 1
        self._last_key = None
        self._last_trace = None
        self._patches = []

    # -- spans --------------------------------------------------------------
    def _new_trace(self):
        trace_id = self._next_trace
        self._next_trace += 1
        return trace_id

    def open(self, name, trace_key=None):
        """Start a span; ``trace_key`` groups consecutive spans into a trace.

        A span with a key starts a new trace unless the previous keyed
        span had the same key; a span without one joins its parent's trace.
        """
        stack = self._stack
        parent = stack[-1] if stack else None
        if trace_key is not None:
            if trace_key != self._last_key or self._last_trace is None:
                self._last_key = trace_key
                self._last_trace = self._new_trace()
            trace_id = self._last_trace
        elif parent is not None:
            trace_id = parent[2]
        else:
            trace_id = self._new_trace()
        span_id = self._next_span
        self._next_span += 1
        stack.append((span_id, parent[0] if parent else None, trace_id,
                      name, self.clock()))

    def close(self):
        span_id, parent_id, trace_id, name, start = self._stack.pop()
        self.spans.append((span_id, parent_id, trace_id, name, start,
                           self.clock()))

    @contextlib.contextmanager
    def span(self, name, trace_key=None):
        """Record one span around a ``with`` block."""
        self.open(name, trace_key)
        try:
            yield
        finally:
            self.close()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping -----------------------------------------------------------
    def wrap(self, cls, attr, name, trace_key=None, observe=None):
        """Record a span named ``name`` around every ``cls.attr`` call.

        ``trace_key(args, kwargs)`` marks the method as a trace root;
        ``observe(recorder, args, kwargs, result)`` records counters from
        the call's arguments and result.
        """
        original = getattr(cls, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                recorder.open(name, trace_key(args, kwargs)
                              if trace_key else None)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    recorder.close()
                if observe is not None:
                    observe(recorder, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                recorder.open(name, trace_key(args, kwargs)
                              if trace_key else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close()
                if observe is not None:
                    observe(recorder, args, kwargs, result)
                return result

        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapper)

    def install(self, hooks):
        """Wrap every ``(cls, attr, name, trace_key, observe)`` hook."""
        for cls, attr, name, trace_key, observe in hooks:
            self.wrap(cls, attr, name, trace_key=trace_key, observe=observe)
        return self

    def uninstall(self):
        while self._patches:
            cls, attr, own = self._patches.pop()
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------
    def write(self, path):
        """Write the spans as JSON lines: a header, then one array each."""
        lines = ['{"fields": ["span_id", "parent_id", "trace_id", "name", '
                 '"start_s", "end_s"]}']
        for span_id, parent_id, trace_id, name, start, end in self.spans:
            lines.append('[{},{},{},"{}",{!r},{!r}]'.format(
                span_id, "null" if parent_id is None else parent_id,
                trace_id, name, start, end))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """``span_id -> self seconds``: duration minus child-covered time."""
    children = {}
    for span in spans:
        parent_id = span[1]
        if parent_id is not None:
            children.setdefault(parent_id, []).append((span[4], span[5]))
    out = {}
    for span_id, _, _, _, start, end in spans:
        kids = children.get(span_id)
        covered = _covered(kids, start, end) if kids else 0.0
        out[span_id] = (end - start) - covered
    return out


def layer_table(spans, names, runs=1):
    """Per-name ``calls``, ``self_s`` (both per run), ``p50_us``, ``tail_us``.

    ``runs`` divides the call count and self time, so a traced run that
    repeats one fixed unit of work reports per-unit figures.  ``tail_us``
    is at the highest percentile with at least ten calls beyond it
    (``tail_q``; None, and 0 us, when there are too few calls).
    """
    selfs = self_times(spans)
    durations = {name: [] for name in names}
    self_total = {name: 0.0 for name in names}
    for span in spans:
        name = span[3]
        if name in durations:
            durations[name].append(span[5] - span[4])
            self_total[name] += selfs[span[0]]
    table = {}
    for name in names:
        values = durations[name]
        tail_q = tail_quantile(len(values))
        table[name] = {
            "calls": len(values) / float(runs),
            "self_s": self_total[name] / float(runs),
            "p50_us": quantile(values, 0.5) * 1e6 if values else 0.0,
            "tail_us": (quantile(values, tail_q) * 1e6
                        if tail_q is not None else 0.0),
            "tail_q": tail_q,
            "n": len(values),
        }
    return table

