"""Request-lifecycle tracing with sim-clock timestamps.

A :class:`Tracer` holds parent/child span trees over the routing path —
router decision → dispatch → AZ placement attempts → retry holds →
billing — and retains a bounded number of recent traces in memory.  A
request's trace is recorded once its outcome is known and its spans are
built only when someone reads it.

Because the simulator's clock does not advance *during* an invocation,
span durations are derived from the modeled latencies: the caller finishes
a span at ``start + latency`` rather than at a wall-clock reading.  All
timestamps are seconds of simulated time.
"""

import collections

from repro.common.errors import ConfigurationError


class Span(object):
    """One timed operation within a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start",
                 "end", "tags")

    def __init__(self, trace_id, span_id, parent_id, name, start, tags):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = float(start)
        self.end = None
        self.tags = tags

    @property
    def is_open(self):
        return self.end is None

    @property
    def duration(self):
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, timestamp):
        if self.end is not None:
            raise ConfigurationError(
                "span {!r} already finished".format(self.name))
        timestamp = float(timestamp)
        if timestamp < self.start:
            raise ConfigurationError(
                "span {!r} cannot end before it starts".format(self.name))
        self.end = timestamp
        return self

    def tag(self, **tags):
        self.tags.update(tags)
        return self

    def to_dict(self):
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "tags": dict(self.tags),
        }

    def __repr__(self):
        return "Span({!r} trace={} id={} parent={})".format(
            self.name, self.trace_id, self.span_id, self.parent_id)


class Trace(object):
    """A root span and its descendants, in start order."""

    def __init__(self, trace_id, root):
        self.trace_id = trace_id
        self.spans = [root]

    @property
    def root(self):
        return self.spans[0]

    def add(self, span):
        self.spans.append(span)

    def span(self, span_id):
        for span in self.spans:
            if span.span_id == span_id:
                return span
        raise ConfigurationError(
            "trace {} has no span {}".format(self.trace_id, span_id))

    def children(self, span_id):
        return [s for s in self.spans if s.parent_id == span_id]

    @property
    def complete(self):
        """True when every span has finished."""
        return all(span.end is not None for span in self.spans)

    @property
    def duration(self):
        return self.root.duration

    def __len__(self):
        return len(self.spans)

    def __repr__(self):
        return "Trace(id={}, spans={}, complete={})".format(
            self.trace_id, len(self), self.complete)


def _build(entry):
    """Materialize a recorded entry (see :meth:`Tracer.record`)."""
    trace_id, first_span_id, layout, values = entry
    spans = []
    at = 0
    for offset, (name, parent, keys) in enumerate(layout):
        tags_at = at + 2
        span = Span(trace_id, first_span_id + offset,
                    None if parent is None else first_span_id + parent,
                    name, values[at],
                    dict(zip(keys, values[tags_at:tags_at + len(keys)])))
        end = values[at + 1]
        if end is not None:
            span.end = float(end)
        spans.append(span)
        at = tags_at + len(keys)
    trace = Trace(trace_id, spans[0])
    trace.spans = spans
    return trace


class Tracer(object):
    """Creates spans and retains the most recent traces.

    Two kinds of trace share one bounded FIFO store (``max_traces``):

    * a **live** trace is opened with :meth:`start_trace` and grown with
      :meth:`start_span`/:meth:`graft` — for spans whose end is not known
      when they start (a sweep root, worker cells, grafted chunks);
    * a **recorded** trace is handed over whole by :meth:`record` as one
      compact entry.  Its :class:`Trace` and :class:`Span` objects are
      built the first time it is read; from then on it is a live trace.

    Every trace takes the next trace id and joins the store as it is
    created (an abandoned live trace stays inspectable), so the store
    always holds consecutive ids and a lookup is an index, not a search.
    """

    def __init__(self, max_traces=256):
        if max_traces < 1:
            raise ConfigurationError("max_traces must be >= 1")
        self._traces = collections.deque(maxlen=int(max_traces))
        self._next_trace_id = 1
        self._next_span_id = 1

    # -- span creation ------------------------------------------------------
    def _new_span_id(self):
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        return span_id

    def start_trace(self, name, timestamp, **tags):
        """Open a new root span (and the trace that owns it)."""
        trace_id = self._next_trace_id
        self._next_trace_id = trace_id + 1
        root = Span(trace_id, self._new_span_id(), None, name, timestamp,
                    tags)
        self._traces.append(Trace(trace_id, root))
        return root

    def record(self, layout, values):
        """Store a trace whose spans are all known, without building them.

        ``layout`` is a tuple of ``(name, parent_index, tag_keys)``, one
        per span in start order; ``parent_index`` points into the layout
        (None for the root, which comes first).  ``values`` is flat: per
        span its start, its end (None while open) and one value per tag
        key.  The trace takes the next trace id and one span id per layout
        entry, in layout order, exactly as :meth:`start_trace` and
        :meth:`start_span` calls in that order would.
        """
        trace_id = self._next_trace_id
        self._next_trace_id = trace_id + 1
        first_span_id = self._next_span_id
        self._next_span_id = first_span_id + len(layout)
        self._traces.append((trace_id, first_span_id, layout, values))

    def _stored(self, trace_id):
        """The stored trace with ``trace_id`` (built if recorded), or None
        when it was evicted or never existed."""
        traces = self._traces
        index = trace_id - (self._next_trace_id - len(traces))
        if index < 0 or index >= len(traces):
            return None
        entry = traces[index]
        if entry.__class__ is tuple:
            entry = traces[index] = _build(entry)
        return entry

    def start_span(self, name, parent, timestamp, **tags):
        """Open a child span under ``parent`` (any span of a live trace)."""
        if parent is None:
            raise ConfigurationError(
                "child spans need a parent; use start_trace for roots")
        trace = self._stored(parent.trace_id)
        if trace is None:
            raise ConfigurationError(
                "trace {} was evicted; cannot extend it".format(
                    parent.trace_id))
        span = Span(parent.trace_id, self._new_span_id(), parent.span_id,
                    name, timestamp, tags)
        trace.add(span)
        return span

    def graft(self, span_dicts, parent, shift=0.0):
        """Re-home exported span dicts (``Span.to_dict()``) under ``parent``.

        Used by telemetry merging: a sweep worker's spans arrive as plain
        dicts and are re-created in this tracer's id space, attached to the
        live trace that owns ``parent``.  Foreign parent links are remapped
        through the new ids; spans whose parent is unknown (the foreign
        roots) attach directly to ``parent``.  ``shift`` rebases the
        foreign clock onto this tracer's timeline — durations are
        preserved exactly.  Returns the new spans in input order.
        """
        if parent is None:
            raise ConfigurationError("graft needs a live parent span")
        trace = self._stored(parent.trace_id)
        if trace is None:
            raise ConfigurationError(
                "trace {} was evicted; cannot graft onto it".format(
                    parent.trace_id))
        id_map = {}
        grafted = []
        for payload in span_dicts:
            parent_id = id_map.get(payload.get("parent_id"), parent.span_id)
            span = Span(parent.trace_id, self._new_span_id(), parent_id,
                        payload["name"], float(payload["start"]) + shift,
                        dict(payload.get("tags") or {}))
            if payload.get("end") is not None:
                span.end = float(payload["end"]) + shift
            id_map[payload["span_id"]] = span.span_id
            trace.add(span)
            grafted.append(span)
        return grafted

    # -- retrieval ----------------------------------------------------------
    def traces(self, complete_only=False):
        traces = self._traces
        if any(entry.__class__ is tuple for entry in traces):
            built = [_build(entry) if entry.__class__ is tuple else entry
                     for entry in traces]
            traces.clear()
            traces.extend(built)
        if complete_only:
            return [t for t in traces if t.complete]
        return list(traces)

    def trace(self, trace_id):
        trace = self._stored(trace_id)
        if trace is None:
            raise ConfigurationError(
                "unknown (or evicted) trace {}".format(trace_id))
        return trace

    def last_trace(self, complete_only=True):
        """The most recent (complete) trace, or None."""
        newest = self._next_trace_id - 1
        for trace_id in range(newest, newest - len(self._traces), -1):
            trace = self._stored(trace_id)
            if not complete_only or trace.complete:
                return trace
        return None

    def __len__(self):
        return len(self._traces)

    def __repr__(self):
        return "Tracer(traces={})".format(len(self))


def format_trace(trace, indent="  "):
    """Render a trace as an indented tree with durations in ms.

    >>> # trace 3: request (12.4ms)
    >>> #   decide (0.0ms)
    >>> #   dispatch (12.4ms)
    >>> #     placement (11.1ms)
    """
    lines = []

    def render(span, depth):
        duration = span.duration
        timing = ("{:.1f}ms".format(duration * 1000.0)
                  if duration is not None else "open")
        tags = ""
        if span.tags:
            tags = "  [" + ", ".join(
                "{}={}".format(k, span.tags[k])
                for k in sorted(span.tags)) + "]"
        lines.append("{}{} ({}){}".format(indent * depth, span.name,
                                          timing, tags))
        for child in trace.children(span.span_id):
            render(child, depth + 1)

    lines.append("trace {}: {} spans, {}".format(
        trace.trace_id, len(trace),
        "complete" if trace.complete else "incomplete"))
    render(trace.root, 1)
    return "\n".join(lines)
