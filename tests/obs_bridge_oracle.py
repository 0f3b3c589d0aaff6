"""Executable spec of the event-to-metric bridge: the original if/elif.

This is the arm-by-arm mapping :class:`repro.obs.Observability` used
before the bridge was compiled from :mod:`repro.obs.catalog`.  It is kept
as a test oracle: ``tests/test_obs_catalog.py`` replays recorded event
streams through both and requires identical registries.  The five events
it never handled (``az.preempt``, ``host.reuse``, ``cloud.hold``,
``controller.staleness``, ``sweep.start``) are the catalog's additions.
"""

#: closed=0, half_open=1, open=2 (kept here so the spec stands alone).
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


def oracle_bridge(registry, event):
    """Fold one event into ``registry`` the way the if/elif bridge did."""
    name, fields = event.name, event.fields
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
        zone = fields["zone"]
        registry.counter("poll_batches_total", zone=zone).inc()
        registry.counter("poll_batch_requests_total", zone=zone).inc(
            fields["requested"])
        registry.counter("poll_batch_served_total", zone=zone).inc(
            fields["served"])
        registry.counter("poll_batch_failed_total", zone=zone).inc(
            fields["failed"])
        registry.counter("poll_batch_cold_starts_total", zone=zone).inc(
            fields["cold_starts"])
        registry.counter("poll_batch_cost_usd_total", zone=zone).inc(
            fields["cost_usd"])
        registry.counter("poll_batch_runtime_seconds_total",
                         zone=zone).inc(fields["runtime_total_s"])
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
            BREAKER_STATE_CODES.get(fields["to"], -1))
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
