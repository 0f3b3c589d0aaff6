"""The layer boundaries the traced run wraps, and the per-layer metrics.

Every hook names a public method of the program.  ``SPAN_NAMES`` is
the span vocabulary; :func:`program_hooks` binds it to the classes (it
imports the program, so call it only once ``repro`` is importable).
"""


def _flush_key(position):
    """Trace key of a routed call: one flush is every call for one zone
    at one sim instant (``decision`` is argument ``position``)."""
    def key(args, kwargs):
        router = args[0]
        decision = (args[position] if len(args) > position
                    else kwargs.get("decision"))
        zone = decision.zone_id if decision is not None else None
        return ("flush", router.cloud.clock.now, zone)
    return key


def _campaign_key(args, kwargs):
    # Every campaign run starts its own trace.
    return object()


def _observe_admit(recorder, args, kwargs, result):
    _, shed_tokens, shed_queue = result
    if shed_tokens or shed_queue:
        recorder.count("serve.admission.shed", shed_tokens + shed_queue)


def _observe_poll_batch(recorder, args, kwargs, result):
    recorder.count("cloudsim.cloud.poll_batch.requests", result.requested)


def _observe_invoke_batch(recorder, args, kwargs, placement):
    recorder.count("cloudsim.az.fis", placement.unique_fis)
    recorder.count("cloudsim.az.warm_fis",
                   sum(placement.reused_fi_counts.values()))


def _observe_invoke_one(recorder, args, kwargs, result):
    _, reused = result
    recorder.count("cloudsim.az.fis", 1)
    if reused:
        recorder.count("cloudsim.az.warm_fis", 1)


def _observe_claim_warm(recorder, args, kwargs, claimed):
    recorder.count("cloudsim.host.claim_warm.fis", claimed)


def _observe_admit_batch(recorder, args, kwargs, admitted):
    n_requests = args[1] if len(args) > 1 else kwargs["n_requests"]
    if n_requests > admitted:
        recorder.count("cloudsim.account.admit_batch.throttled",
                       n_requests - admitted)


#: (span name, "module:Class", method, trace key, observer)
_HOOKS = (
    ("serve.arrivals.draw", "repro.serve.arrivals:ArrivalProcess", "draw",
     None, None),
    ("serve.admission.admit", "repro.serve.admission:AdmissionController",
     "admit", None, _observe_admit),
    ("serve.gateway.run", "repro.serve.gateway:ServeGateway", "run",
     None, None),
    ("core.router.decide", "repro.core.router:SmartRouter", "decide",
     None, None),
    ("core.router.dispatch_batch", "repro.core.router:SmartRouter",
     "dispatch_batch", _flush_key(2), None),
    ("core.router.route", "repro.core.router:SmartRouter", "route",
     _flush_key(1), None),
    ("core.controller.refresh_zone", "repro.core.controller:SkyController",
     "refresh_zone", None, None),
    ("cloudsim.cloud.poll_batch", "repro.cloudsim.cloud:Cloud", "poll_batch",
     None, _observe_poll_batch),
    ("cloudsim.cloud.invoke", "repro.cloudsim.cloud:Cloud", "invoke",
     None, None),
    # The sampling burst path: ``Cloud.poll`` is a thin front over
    # ``place_batch``, which is what the sampling ``Poller`` calls.
    ("cloudsim.cloud.poll", "repro.cloudsim.cloud:Cloud", "place_batch",
     None, None),
    ("cloudsim.az.invoke_batch", "repro.cloudsim.az:AvailabilityZone",
     "invoke_batch", None, _observe_invoke_batch),
    ("cloudsim.az.invoke_one", "repro.cloudsim.az:AvailabilityZone",
     "invoke_one", None, _observe_invoke_one),
    ("cloudsim.host.claim_warm", "repro.cloudsim.host:HostPool",
     "claim_warm", None, _observe_claim_warm),
    ("cloudsim.host.expire", "repro.cloudsim.host:HostPool", "expire",
     None, None),
    ("cloudsim.host.allocate_instance", "repro.cloudsim.host:HostPool",
     "allocate_instance", None, None),
    ("cloudsim.account.admit_batch", "repro.cloudsim.account:CloudAccount",
     "admit_batch", None, _observe_admit_batch),
    ("cloudsim.billing.bill_ticks", "repro.cloudsim.billing:BillingModel",
     "bill_ticks", None, None),
    ("cloudsim.billing.bill", "repro.cloudsim.billing:BillingModel", "bill",
     None, None),
    ("obs.bus.emit", "repro.obs.hooks:EventBus", "emit", None, None),
    ("obs.histogram.observe_many", "repro.obs.metrics:Histogram",
     "observe_many", None, None),
    ("sampling.campaign.run", "repro.sampling.campaign:SamplingCampaign",
     "run", _campaign_key, None),
    ("sampling.poller.poll", "repro.sampling.poller:Poller", "poll",
     None, None),
    ("sampling.characterization.add_poll",
     "repro.sampling.characterization:CharacterizationBuilder", "add_poll",
     None, None),
)

#: Timed in the parent around ``SweepEngine.run`` (not a wrapped hook).
ENGINE_SPAN = "engine.sweep.run"

SPAN_NAMES = tuple(h[0] for h in _HOOKS) + (ENGINE_SPAN,)

#: Per-layer counters: (name, unit, better).
COUNTERS = (
    ("serve.admission.shed", "count", "lower"),
    ("serve.gateway.flushes_coalesced", "count", "lower"),
    ("serve.gateway.flushes_scalar", "count", "lower"),
    ("serve.gateway.mean_flush_size", "requests", "higher"),
    ("cloudsim.cloud.poll_batch.requests_per_call", "requests", "higher"),
    ("cloudsim.az.warm_hit_ratio", "ratio", "higher"),
    ("cloudsim.host.claim_warm.fis_per_call", "count", "higher"),
    ("cloudsim.host.live_buckets", "count", "lower"),
    ("cloudsim.account.admit_batch.throttled", "count", "lower"),
    ("engine.first_chunk_s", "s", "lower"),
    ("engine.chunks", "count", "lower"),
    ("engine.result_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Per-span statistics: (suffix, unit).
SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"),
              ("tail_us", "us"))


def per_layer_metrics():
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for name in SPAN_NAMES:
        for suffix, unit in SPAN_STATS:
            out.append(("{}.{}".format(name, suffix), unit, "lower"))
    out.extend(COUNTERS)
    return out


def program_hooks():
    """Bind the hook table to the program's classes."""
    import importlib

    hooks = []
    for name, target, attr, trace_key, observe in _HOOKS:
        module_name, class_name = target.split(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        hooks.append((cls, attr, name, trace_key, observe))
    return hooks
