"""Observability: metrics, tracing, and instrumentation hooks.

The paper's whole method is *observing* opaque FaaS infrastructure; this
package turns the same lens on the library itself.  Three primitives —

* :mod:`hooks` — a pub/sub :class:`EventBus` with a zero-cost
  :data:`NULL_BUS` default that every instrumented component holds;
* :mod:`metrics` — a :class:`MetricsRegistry` of labeled counters,
  gauges, and streaming histograms (p50/p95/p99);
* :mod:`trace` — span-based request-lifecycle tracing on sim-clock
  timestamps with a bounded trace store;

— plus :mod:`export` (JSONL / Prometheus text / CSV) and the
:class:`Observability` facade that bundles all of them and bridges events
into standard metrics.  Observability is **opt-in**: nothing is recorded
until a facade (or bus) is installed on a :class:`~repro.cloudsim.Cloud`
or passed to a :class:`~repro.core.SkyController`, and the disabled
default costs one attribute check per emission site.
"""

from repro.obs.hooks import Event, EventBus, EventRecorder, NULL_BUS, NullBus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
)
from repro.obs.trace import Span, Trace, Tracer, format_trace
from repro.obs import export
from repro.obs.async_export import (
    AsyncCsvExporter,
    AsyncJsonlExporter,
    AsyncPrometheusExporter,
)
from repro.obs.ship import TelemetryCapture, TelemetryMerge, current_capture
from repro.obs.manifest import DEFAULT_REGISTRY, RunManifest, RunRegistry
from repro.obs.serve import ObsServer, render_tail, scrape

#: Numeric encoding of breaker states for the ``breaker_state`` gauge
#: (Prometheus gauges are floats): closed=0, half_open=1, open=2.
_BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


class Observability(object):
    """One handle over the whole layer: bus + registry + tracer + recorder.

    Construct it, then either ``install(cloud)`` (wires the bus through the
    cloud's zones and host pools) or pass it to ``SkyController(obs=...)``
    / ``SmartRouter(obs=...)`` which install and trace on your behalf.

    A built-in bridge folds the standard event stream into registry
    metrics, so per-zone/per-cpu counters and latency histograms exist
    without any manual subscription.
    """

    def __init__(self, event_capacity=20000, max_traces=256, bridge=True):
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(max_traces=max_traces)
        self.recorder = EventRecorder(self.bus, capacity=event_capacity)
        if bridge:
            self.bus.subscribe(self._bridge)

    @property
    def enabled(self):
        """Collection switch: gates the bus AND request tracing."""
        return self.bus.enabled

    # -- wiring -------------------------------------------------------------
    def install(self, cloud):
        """Attach this facade's bus to ``cloud`` (zones + host pools)."""
        cloud.attach_bus(self.bus)
        return self

    def enable(self):
        self.bus.resume()
        return self

    def disable(self):
        """Pause collection without detaching any wiring."""
        self.bus.pause()
        return self

    # -- the standard event → metric bridge ---------------------------------
    def _bridge(self, event):
        name, fields = event.name, event.fields
        registry = self.registry
        if name == "cloud.invoke":
            labels = {"zone": fields["zone"], "cpu": fields["cpu"]}
            registry.counter("invocations_total", **labels).inc()
            registry.histogram("invoke_latency_s", **labels).observe(
                fields["latency_s"])
            registry.counter("invoke_cost_usd_total", **labels).inc(
                fields["cost_usd"])
            if not fields["reused"]:
                registry.counter("cold_starts_total", **labels).inc()
        elif name == "cloud.poll_batch":
            # Pre-bound handles: one cached lookup replaces seven registry
            # label resolutions per event.  The cache lives on the
            # registry, so ``registry.clear()`` drops it with the series.
            zone = fields["zone"]
            key = ("cloud.poll_batch", zone)
            handles = registry.handle_cache.get(key)
            if handles is None:
                handles = registry.handle_cache[key] = (
                    registry.counter("poll_batches_total", zone=zone),
                    registry.counter("poll_batch_requests_total",
                                     zone=zone),
                    registry.counter("poll_batch_served_total", zone=zone),
                    registry.counter("poll_batch_failed_total", zone=zone),
                    registry.counter("poll_batch_cold_starts_total",
                                     zone=zone),
                    registry.counter("poll_batch_cost_usd_total",
                                     zone=zone),
                    registry.counter("poll_batch_runtime_seconds_total",
                                     zone=zone),
                )
            (batches, requested, served, failed, cold, cost,
             runtime) = handles
            batches.inc()
            requested.inc(fields["requested"])
            served.inc(fields["served"])
            failed.inc(fields["failed"])
            cold.inc(fields["cold_starts"])
            cost.inc(fields["cost_usd"])
            runtime.inc(fields["runtime_total_s"])
        elif name == "az.placement":
            zone = fields["zone"]
            registry.counter("placements_total", zone=zone).inc()
            registry.counter("placement_requests_total", zone=zone).inc(
                fields["requested"])
            registry.counter("placement_served_total", zone=zone).inc(
                fields["served"])
            registry.counter("placement_failed_total", zone=zone).inc(
                fields["failed"])
            registry.gauge("zone_occupancy", zone=zone).set(
                fields["occupancy"])
        elif name == "az.saturation":
            registry.counter("saturation_events_total",
                             zone=fields["zone"]).inc()
        elif name == "az.scale":
            registry.counter("surge_slots_total", zone=fields["zone"]).inc(
                fields["slots_added"])
        elif name == "host.expire":
            registry.counter("slots_released_total", zone=fields["zone"],
                             cpu=fields["cpu"]).inc(fields["released"])
        elif name == "host.allocate":
            registry.counter("slots_allocated_total", zone=fields["zone"],
                             cpu=fields["cpu"]).inc(fields["count"])
        elif name == "sampling.poll":
            zone = fields["zone"]
            registry.counter("polls_total", zone=zone).inc()
            registry.counter("poll_cost_usd_total", zone=zone).inc(
                fields["cost_usd"])
            registry.histogram("poll_failure_rate", zone=zone).observe(
                fields["failure_rate"])
        elif name == "sampling.campaign":
            registry.counter("campaigns_total", zone=fields["zone"]).inc()
        elif name == "retry.attempt":
            registry.counter("retry_attempts_total", zone=fields["zone"],
                             cpu=fields["cpu"]).inc()
        elif name == "retry.hold":
            registry.counter("retry_holds_total",
                             zone=fields["zone"]).inc()
            registry.counter("retry_hold_cost_usd_total",
                             zone=fields["zone"]).inc(fields["cost_usd"])
        elif name == "controller.refresh":
            registry.counter("profile_refreshes_total",
                             zone=fields["zone"]).inc()
            registry.counter("sampling_cost_usd_total",
                             zone=fields["zone"]).inc(fields["cost_usd"])
        elif name == "retry.abort":
            registry.counter("retry_aborts_total", zone=fields["zone"],
                             reason=fields["reason"]).inc()
        elif name == "fault.injected":
            registry.counter("faults_injected_total", zone=fields["zone"],
                             kind=fields["kind"]).inc()
        elif name == "breaker.transition":
            zone = fields["zone"]
            registry.counter("breaker_transitions_total", zone=zone,
                             to=fields["to"]).inc()
            registry.gauge("breaker_state", zone=zone).set(
                _BREAKER_STATE_CODES.get(fields["to"], -1))
        elif name == "router.failover":
            registry.counter("failovers_total", zone=fields["zone"],
                             reason=fields["reason"]).inc()
        elif name == "router.backoff":
            zone = fields["zone"]
            registry.counter("backoffs_total", zone=zone).inc()
            registry.counter("backoff_seconds_total", zone=zone).inc(
                fields["delay_s"])
        elif name == "router.hedge":
            zone = fields["zone"]
            registry.counter("hedges_total", zone=zone).inc()
            if fields["won"]:
                registry.counter("hedge_wins_total", zone=zone).inc()
        elif name == "sweep.cell":
            registry.counter("sweep_cells_total").inc()
            registry.histogram("sweep_cell_wall_ms").observe(
                fields["wall_ms"])
            if not fields["ok"]:
                registry.counter("sweep_cell_failures_total").inc()
        elif name == "sweep.fallback":
            registry.counter("sweep_fallbacks_total").inc()
        elif name == "sweep.worker_joined":
            registry.counter("sweep_workers_joined_total").inc()
        elif name == "sweep.worker_lost":
            registry.counter("sweep_workers_lost_total").inc()
        elif name == "sweep.chunk_requeued":
            registry.counter("sweep_chunks_requeued_total").inc()
        elif name == "sweep.worker_left":
            registry.counter("sweep_workers_left_total").inc()
        elif name == "sweep.auth_rejected":
            registry.counter("sweep_auth_rejected_total").inc()
        elif name == "sweep.resumed":
            registry.counter("sweep_chunks_replayed_total").inc(
                fields.get("chunks", 0))
            registry.counter("sweep_cells_replayed_total").inc(
                fields.get("cells", 0))
        elif name == "sweep.done":
            registry.gauge("sweep_workers").set(fields["workers"])
            registry.gauge("sweep_worker_utilization").set(
                fields["utilization"])
        elif name == "sweep.telemetry":
            worker = fields.get("worker", "unknown")
            registry.counter("sweep_shipped_chunks_total",
                             worker=worker).inc()
            registry.counter("sweep_shipped_events_total",
                             worker=worker).inc(fields.get("events", 0))
            registry.counter("sweep_shipped_spans_total",
                             worker=worker).inc(fields.get("spans", 0))
        elif name == "sweep.telemetry_dropped":
            registry.counter("sweep_telemetry_dropped_total",
                             worker=fields.get("worker", "unknown")).inc(
                fields.get("dropped", 0))
        elif name == "serve.batch":
            mode = fields["mode"]
            registry.counter("serve_batches_total", mode=mode).inc()
            registry.histogram("serve_batch_size", mode=mode).observe(
                fields["size"])
            registry.counter("serve_requests_total",
                             outcome="served").inc(fields["served"])
            if fields["failed"]:
                registry.counter("serve_requests_total",
                                 outcome="failed").inc(fields["failed"])
            registry.counter("serve_cold_starts_total").inc(
                fields["cold_starts"])
            registry.counter("serve_cost_usd_total").inc(fields["cost_usd"])
        elif name == "serve.shed":
            registry.counter("serve_shed_total",
                             reason=fields["reason"]).inc(fields["count"])
            registry.counter("serve_requests_total",
                             outcome="shed").inc(fields["count"])
        elif name == "serve.report":
            registry.counter("serve_offered_total").inc(fields["offered"])
            registry.counter("serve_admitted_total").inc(fields["admitted"])
            registry.gauge("serve_offered_rps").set(fields["offered_rps"])
            registry.gauge("serve_goodput_rps").set(fields["goodput_rps"])
            registry.gauge("serve_shed_rate").set(fields["shed_rate"])
            registry.gauge("serve_slo_attainment").set(
                fields["slo_attainment"])
            registry.gauge("serve_p50_ms").set(fields["p50_ms"])
            registry.gauge("serve_p95_ms").set(fields["p95_ms"])
            registry.gauge("serve_p99_ms").set(fields["p99_ms"])
        elif name == "serve.recharacterize":
            registry.counter("serve_recharacterizations_total",
                             zone=fields["zone"]).inc()
        elif name == "serve.drain":
            registry.counter("serve_drains_total").inc()
            registry.gauge("serve_drained_requests").set(fields["drained"])

    # -- summaries ----------------------------------------------------------
    def zone_latency_summary(self):
        """zone -> {requests, mean, p50, p95, p99} from invoke histograms."""
        return self._latency_summary("zone")

    def cpu_latency_summary(self):
        """cpu -> {requests, mean, p50, p95, p99} from invoke histograms."""
        return self._latency_summary("cpu")

    def _latency_summary(self, label):
        merged = {}
        for labels in self.registry.labels_of("invoke_latency_s"):
            histogram = self.registry.get("invoke_latency_s", **labels)
            bucket = merged.setdefault(labels[label], [])
            bucket.append(histogram)
        summary = {}
        empty = float("nan")
        for key, histograms in sorted(merged.items()):
            values = []
            for histogram in histograms:
                values.extend(histogram._reservoir)
            values.sort()
            count = sum(h.count for h in histograms)
            total = sum(h.sum for h in histograms)
            # A cold series (touch-created or merged-empty histograms)
            # reports NaN quantiles rather than crashing — or lying with
            # 0.0 — about latencies nobody measured.
            summary[key] = {
                "requests": count,
                "mean_latency_s": total / count if count else empty,
                "p50_latency_s": quantile(values, 0.50) if values else empty,
                "p95_latency_s": quantile(values, 0.95) if values else empty,
                "p99_latency_s": quantile(values, 0.99) if values else empty,
            }
        return summary

    def __repr__(self):
        return ("Observability(enabled={}, events={}, metrics={}, "
                "traces={})".format(self.bus.enabled, len(self.recorder),
                                    len(self.registry), len(self.tracer)))


__all__ = [
    "Observability",
    "Event",
    "EventBus",
    "EventRecorder",
    "NullBus",
    "NULL_BUS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile",
    "Span",
    "Trace",
    "Tracer",
    "format_trace",
    "export",
    "AsyncJsonlExporter",
    "AsyncPrometheusExporter",
    "AsyncCsvExporter",
    "TelemetryCapture",
    "TelemetryMerge",
    "current_capture",
    "RunManifest",
    "RunRegistry",
    "DEFAULT_REGISTRY",
    "ObsServer",
    "scrape",
    "render_tail",
]
