"""The event catalog: every event the system emits, declared once.

Each entry of :data:`EVENTS` names one event and lists the metric series
it feeds — kind, family, ``# HELP`` text, the event fields that become
labels, and the field that becomes the value (or none: the event counts
once) — or marks the event trace-only with a one-line reason.  :data:`DIRECT` gives HELP text
for the few families written straight into a registry rather than
through an event, so :data:`HELP` covers every family the system creates.

:func:`compile_bridge` turns the catalog into the bus subscriber that
:class:`~repro.obs.Observability` installs: each entry compiles to one
straight-line handler.  Handles are resolved once per label-value tuple
and parked in ``registry.handle_cache`` (which ``registry.clear()``
empties), so a steady-state event costs two dict lookups plus plain
``.inc()``/``.set()``/``.observe()`` calls — no lock, no label sort.  A
series with a ``when`` condition is created only the first time the
condition holds, never pre-created at zero.

To add an event: emit it, then add its entry here.  The catalog test
fails on an emitted name with no entry and on an entry nothing emits.
"""

import collections
import functools

from repro.common.errors import ConfigurationError
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM

#: Numeric encoding of breaker states for the ``breaker_state`` gauge
#: (Prometheus gauges are floats): closed=0, half_open=1, open=2; any
#: other state reads -1.
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}

#: One series an event feeds.  ``labels`` are event field names (label
#: name == field name); ``const`` adds fixed labels.  ``value`` is the
#: field the series records, or None for a counter that counts the event
#: once; with ``codes`` the field's value is mapped through that dict
#: (unknown values read -1).  ``when`` is ``(field, truth)``: the series
#: is touched only when ``bool(fields[field]) is truth``.
Series = collections.namedtuple(
    "Series", "kind family help labels const value codes when")

#: A catalog entry: the series an event feeds, the defaults for fields
#: an emitter may omit, or the reason the event reaches traces only.
Entry = collections.namedtuple("Entry", "series defaults trace_only")


def counter(family, help, labels=(), value=None, when=None, const=None):
    return Series(COUNTER, family, help, tuple(labels), const or {}, value,
                  None, when)


def gauge(family, help, labels=(), value=None, codes=None):
    return Series(GAUGE, family, help, tuple(labels), {}, value, codes,
                  None)


def histogram(family, help, labels=(), value=None):
    return Series(HISTOGRAM, family, help, tuple(labels), {}, value, None,
                  None)


def event(*series, **defaults):
    return Entry(series, defaults, None)


def trace_only(reason):
    return Entry((), {}, reason)


_SERVE_REQUESTS = "Gateway requests by outcome (served, failed, shed)."
_WORKER_UTILIZATION = ("Busy share of the sweep's worker lanes over the "
                       "sweep's wall time.")

EVENTS = {
    # -- cloud facade ---------------------------------------------------------
    "cloud.invoke": event(
        counter("invocations_total",
                "Single invocations served, per zone and CPU.",
                ("zone", "cpu")),
        histogram("invoke_latency_s",
                  "Client-observed latency of single invocations, in "
                  "seconds.", ("zone", "cpu"), "latency_s"),
        counter("invoke_cost_usd_total",
                "Billed cost of single invocations, in USD.",
                ("zone", "cpu"), "cost_usd"),
        counter("cold_starts_total",
                "Single invocations that started a new instance.",
                ("zone", "cpu"), when=("reused", False)),
    ),
    "cloud.hold": event(
        counter("hold_seconds_total",
                "Seconds instances were held busy past their request.",
                ("zone",), "hold_s"),
        counter("hold_cost_usd_total",
                "Billed cost of instance holds, in USD.",
                ("zone",), "cost_usd"),
    ),
    "cloud.poll_batch": event(
        counter("poll_batches_total", "Vectorized poll batches run.",
                ("zone",)),
        counter("poll_batch_requests_total",
                "Requests offered by poll batches.", ("zone",),
                "requested"),
        counter("poll_batch_served_total",
                "Requests served by poll batches.", ("zone",), "served"),
        counter("poll_batch_failed_total",
                "Requests poll batches could not place.", ("zone",),
                "failed"),
        counter("poll_batch_cold_starts_total",
                "Cold starts inside poll batches.", ("zone",),
                "cold_starts"),
        counter("poll_batch_cost_usd_total",
                "Billed cost of poll batches, in USD.", ("zone",),
                "cost_usd"),
        counter("poll_batch_runtime_seconds_total",
                "Summed runtime of poll-batch requests, in seconds.",
                ("zone",), "runtime_total_s"),
    ),
    # -- zones and host pools -------------------------------------------------
    "az.placement": event(
        counter("placements_total", "Burst placements attempted.",
                ("zone",)),
        counter("placement_requests_total",
                "Requests offered to burst placement.", ("zone",),
                "requested"),
        counter("placement_served_total",
                "Requests burst placement served.", ("zone",), "served"),
        counter("placement_failed_total",
                "Requests burst placement could not place.", ("zone",),
                "failed"),
        gauge("zone_occupancy",
              "Busy share of the zone's slots after the last placement.",
              ("zone",), "occupancy"),
    ),
    "az.saturation": event(
        counter("saturation_events_total",
                "Placements that left requests unplaced.", ("zone",)),
    ),
    "az.scale": event(
        counter("surge_slots_total",
                "Slots added by the zone's surge scaling.", ("zone",),
                "slots_added"),
    ),
    "az.preempt": event(
        counter("instances_preempted_total",
                "Warm instances reclaimed by provider preemption.",
                ("zone",), "reclaimed"),
    ),
    "host.expire": event(
        counter("slots_released_total",
                "Instance slots released at keep-alive expiry.",
                ("zone", "cpu"), "released"),
    ),
    "host.allocate": event(
        counter("slots_allocated_total",
                "Instance slots allocated to new instances.",
                ("zone", "cpu"), "count"),
    ),
    "host.reuse": event(
        counter("slots_reused_total",
                "Warm instance slots claimed for reuse.",
                ("zone", "cpu"), "count"),
    ),
    "fault.injected": event(
        counter("faults_injected_total", "Faults the injector fired.",
                ("zone", "kind")),
    ),
    # -- sampling and control -------------------------------------------------
    "sampling.poll": event(
        counter("polls_total", "Sampling polls run.", ("zone",)),
        counter("poll_cost_usd_total",
                "Billed cost of sampling polls, in USD.", ("zone",),
                "cost_usd"),
        histogram("poll_failure_rate",
                  "Share of each sampling poll's requests that failed.",
                  ("zone",), "failure_rate"),
    ),
    "sampling.campaign": event(
        counter("campaigns_total", "Sampling campaigns finished.",
                ("zone",)),
    ),
    "controller.refresh": event(
        counter("profile_refreshes_total",
                "Zone characterizations re-sampled.", ("zone",)),
        counter("sampling_cost_usd_total",
                "Billed cost of characterization refreshes, in USD.",
                ("zone",), "cost_usd"),
    ),
    "controller.staleness": trace_only(
        "the refreshes it summarizes are counted per zone by "
        "controller.refresh"),
    # -- routing and resilience -----------------------------------------------
    "retry.attempt": event(
        counter("retry_attempts_total",
                "Requests re-issued after landing on a banned CPU.",
                ("zone", "cpu")),
    ),
    "retry.hold": event(
        counter("retry_holds_total",
                "Instances held busy by the retry method.", ("zone",)),
        counter("retry_hold_cost_usd_total",
                "Billed cost of retry holds, in USD.", ("zone",),
                "cost_usd"),
    ),
    "retry.abort": event(
        counter("retry_aborts_total", "Retry loops that gave up.",
                ("zone", "reason")),
    ),
    "breaker.transition": event(
        counter("breaker_transitions_total",
                "Circuit-breaker state changes, by target state.",
                ("zone", "to")),
        gauge("breaker_state",
              "Circuit-breaker state: 0 closed, 1 half-open, 2 open.",
              ("zone",), "to", codes=BREAKER_STATE_CODES),
    ),
    "router.failover": event(
        counter("failovers_total", "Requests moved to another zone.",
                ("zone", "reason")),
    ),
    "router.backoff": event(
        counter("backoffs_total", "Backoff waits before a retry.",
                ("zone",)),
        counter("backoff_seconds_total",
                "Seconds spent in backoff waits.", ("zone",), "delay_s"),
    ),
    "router.hedge": event(
        counter("hedges_total", "Hedged requests fired.", ("zone",)),
        counter("hedge_wins_total",
                "Hedged requests that beat the primary.", ("zone",),
                when=("won", True)),
    ),
    # -- sweep engine ---------------------------------------------------------
    "sweep.start": event(
        counter("sweep_starts_total", "Sweeps started."),
    ),
    "sweep.cell": event(
        counter("sweep_cells_total", "Sweep cells finished."),
        histogram("sweep_cell_wall_ms",
                  "Wall time of each sweep cell, in milliseconds.",
                  value="wall_ms"),
        counter("sweep_cell_failures_total", "Sweep cells that failed.",
                when=("ok", False)),
    ),
    "sweep.fallback": event(
        counter("sweep_fallbacks_total",
                "Sweeps that fell back to a simpler backend."),
    ),
    "sweep.worker_joined": event(
        counter("sweep_workers_joined_total", "Remote workers that joined."),
    ),
    "sweep.worker_lost": event(
        counter("sweep_workers_lost_total",
                "Remote workers lost mid-sweep."),
    ),
    "sweep.worker_left": event(
        counter("sweep_workers_left_total",
                "Remote workers that left cleanly."),
    ),
    "sweep.chunk_requeued": event(
        counter("sweep_chunks_requeued_total",
                "Chunks requeued after their worker was lost."),
    ),
    "sweep.auth_rejected": event(
        counter("sweep_auth_rejected_total",
                "Worker connections refused for a bad token."),
    ),
    "sweep.resumed": event(
        counter("sweep_chunks_replayed_total",
                "Chunks replayed from a journal on resume.",
                value="chunks"),
        counter("sweep_cells_replayed_total",
                "Cells replayed from a journal on resume.", value="cells"),
        chunks=0, cells=0,
    ),
    "sweep.done": event(
        gauge("sweep_workers", "Worker lanes of the last sweep.",
              value="workers"),
        gauge("sweep_worker_utilization", _WORKER_UTILIZATION,
              value="utilization"),
    ),
    "sweep.telemetry": event(
        counter("sweep_shipped_chunks_total",
                "Telemetry payloads merged from workers.", ("worker",)),
        counter("sweep_shipped_events_total",
                "Events shipped home by workers.", ("worker",), "events"),
        counter("sweep_shipped_spans_total",
                "Spans shipped home by workers.", ("worker",), "spans"),
        worker="unknown", events=0, spans=0,
    ),
    "sweep.telemetry_dropped": event(
        counter("sweep_telemetry_dropped_total",
                "Worker events dropped at the capture bound.",
                ("worker",), "dropped"),
        worker="unknown", dropped=0,
    ),
    # -- serving gateway ------------------------------------------------------
    "serve.batch": event(
        counter("serve_batches_total", "Gateway flushes, by dispatch mode.",
                ("mode",)),
        histogram("serve_batch_size", "Requests per gateway flush.",
                  ("mode",), "size"),
        counter("serve_requests_total", _SERVE_REQUESTS, value="served",
                const={"outcome": "served"}),
        counter("serve_requests_total", _SERVE_REQUESTS, value="failed",
                const={"outcome": "failed"}, when=("failed", True)),
        counter("serve_cold_starts_total",
                "Cold starts among gateway requests.", value="cold_starts"),
        counter("serve_cost_usd_total",
                "Billed cost of gateway requests, in USD.",
                value="cost_usd"),
    ),
    "serve.shed": event(
        counter("serve_shed_total", "Requests shed at admission, by reason.",
                ("reason",), "count"),
        counter("serve_requests_total", _SERVE_REQUESTS, value="count",
                const={"outcome": "shed"}),
    ),
    "serve.report": event(
        counter("serve_offered_total", "Requests offered to the gateway.",
                value="offered"),
        counter("serve_admitted_total", "Requests the gateway admitted.",
                value="admitted"),
        gauge("serve_offered_rps",
              "Offered rate over the last report window, per second.",
              value="offered_rps"),
        gauge("serve_goodput_rps",
              "Served rate over the last report window, per second.",
              value="goodput_rps"),
        gauge("serve_shed_rate", "Share of offered requests shed so far.",
              value="shed_rate"),
        gauge("serve_slo_attainment",
              "Share of served requests within the latency SLO so far.",
              value="slo_attainment"),
        gauge("serve_p50_ms", "Median request latency so far, in ms.",
              value="p50_ms"),
        gauge("serve_p95_ms", "95th-percentile request latency so far, "
              "in ms.", value="p95_ms"),
        gauge("serve_p99_ms", "99th-percentile request latency so far, "
              "in ms.", value="p99_ms"),
    ),
    "serve.recharacterize": event(
        counter("serve_recharacterizations_total",
                "Zones the gateway re-characterized after errors.",
                ("zone",)),
    ),
    "serve.drain": event(
        counter("serve_drains_total", "Gateway drains completed."),
        gauge("serve_drained_requests",
              "Requests flushed by the last drain.", value="drained"),
    ),
}

#: Families written straight into a registry, not through an event:
#: family -> (kind, HELP text).
DIRECT = {
    "serve_latency_s": (
        HISTOGRAM, "Latency of every gateway request, in seconds."),
    "sweep_cells_inflight": (
        GAUGE, "Sweep cells dispatched and not yet absorbed."),
    "sweep_remote_worker_utilization": (
        GAUGE, "Busy share of each remote worker over the sweep."),
    "sweep_worker_utilization": (GAUGE, _WORKER_UTILIZATION),
    "sweep_worker_cells_total": (
        COUNTER, "Cells each worker ran (shipped telemetry)."),
    "sweep_worker_cell_wall_ms": (
        HISTOGRAM, "Worker-side wall time per cell, in milliseconds."),
    "sweep_worker_cell_failures_total": (
        COUNTER, "Cells that failed on each worker (shipped telemetry)."),
}


def _help_index():
    """family -> HELP text, after checking the declarations agree."""
    declared = []
    for entry in EVENTS.values():
        for series in entry.series:
            if series.kind != COUNTER and series.value is None:
                raise ConfigurationError("{} {!r} needs a value field"
                                         .format(series.kind, series.family))
            declared.append((series.family, series.kind, series.help))
    declared.extend((family, kind, text)
                    for family, (kind, text) in DIRECT.items())
    kinds, texts = {}, {}
    for family, kind, text in declared:
        if kinds.setdefault(family, kind) != kind or \
                texts.setdefault(family, text) != text:
            raise ConfigurationError(
                "family {!r} is declared twice with different kinds or "
                "HELP text".format(family))
    return texts


#: family -> HELP text, for every family the catalog or :data:`DIRECT`
#: declares.
HELP = _help_index()

_UPDATE = {COUNTER: "inc", GAUGE: "set", HISTOGRAM: "observe"}
_RESOLVE = {COUNTER: "counter", GAUGE: "gauge", HISTOGRAM: "histogram"}


def _label_fields(entry):
    """The event fields any of the entry's series takes a label from."""
    fields = []
    for series in entry.series:
        for label in series.labels:
            if label not in fields:
                fields.append(label)
    return fields


def _binder(registry, entry):
    """``label values -> bound updates`` for one entry.

    The bound tuple holds, per series, its handle's ``inc``/``set``/
    ``observe`` method — or, for a ``when`` series, a zero-argument
    resolver that creates the series the first time it is called and
    returns that method from then on.
    """
    label_fields = _label_fields(entry)

    def bind(label_values):
        values = dict(zip(label_fields, label_values))
        bound = []
        for series in entry.series:
            labels = {label: values[label] for label in series.labels}
            labels.update(series.const)
            resolve = functools.partial(
                getattr(registry, _RESOLVE[series.kind]), series.family,
                **labels)
            if series.when is None:
                bound.append(getattr(resolve(), _UPDATE[series.kind]))
            else:
                bound.append(_lazy(resolve, _UPDATE[series.kind]))
        return tuple(bound)
    return bind


def _lazy(resolve, update):
    slot = []

    def resolved():
        if not slot:
            slot.append(getattr(resolve(), update))
        return slot[0]
    return resolved


def _handler_source(name, entry):
    """Straight-line Python source of one event's handler.

    For ``cloud.invoke`` it reads::

        def handle(fields):
            key = ('cloud.invoke', fields['zone'], fields['cpu'])
            bound = cache.get(key)
            if bound is None:
                bound = cache[key] = bind(key[1:])
            bound[0]()
            bound[1](fields['latency_s'])
            bound[2](fields['cost_usd'])
            if not fields['reused']:
                bound[3]()()

    — the arm one would write by hand: one cache lookup, then one
    update call per series, with no per-series loop or dispatch.
    """
    defaults = entry.defaults

    def read(field):
        if field in defaults:
            return "fields.get({!r}, defaults[{!r}])".format(field, field)
        return "fields[{!r}]".format(field)

    key = "".join(", " + read(label) for label in _label_fields(entry))
    lines = ["def handle(fields):",
             "    key = ({!r}{})".format(name, key or ","),
             "    bound = cache.get(key)",
             "    if bound is None:",
             "        bound = cache[key] = bind(key[1:])"]
    for index, series in enumerate(entry.series):
        if series.value is None:
            value = ""
        elif series.codes is not None:
            value = "codes[{}].get({}, -1)".format(index,
                                                   read(series.value))
        else:
            value = read(series.value)
        if series.when is None:
            lines.append("    bound[{}]({})".format(index, value))
        else:
            field, truth = series.when
            lines.append("    if {}{}:".format("" if truth else "not ",
                                               read(field)))
            lines.append("        bound[{}]()({})".format(index, value))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _handler_code(name):
    """The compiled handler source for event ``name``, once per process."""
    return compile(_handler_source(name, EVENTS[name]),
                   "<catalog {}>".format(name), "exec")


def compile_bridge(registry):
    """The event→metric bus subscriber for ``registry``.

    Each catalogued event's handler is compiled from its entry
    (:func:`_handler_source`); bound updates are cached in
    ``registry.handle_cache`` under ``(event name, *label values)``, so
    ``registry.clear()`` drops them together with the series.  The
    subscriber dispatches through one dict; trace-only and uncatalogued
    events fall through untouched.
    """
    handlers = {}
    for name, entry in EVENTS.items():
        if not entry.series:
            continue
        namespace = {"cache": registry.handle_cache,
                     "bind": _binder(registry, entry),
                     "defaults": entry.defaults,
                     "codes": [series.codes for series in entry.series]}
        exec(_handler_code(name), namespace)
        handlers[name] = namespace["handle"]
    dispatch = handlers.get

    def bridge(event):
        handler = dispatch(event.name)
        if handler is not None:
            handler(event.fields)
    return bridge
