"""Executable spec of a request trace: the eager, span-by-span construction.

This is how :meth:`repro.core.router.SmartRouter.route` and
:meth:`repro.core.retry.RetryEngine.invoke` built a request's trace
before ``route`` learned to record it in one entry once the outcome is
known: live ``start_trace``/``start_span``/``finish`` calls as the request
runs.  ``tests/test_request_traces.py`` drives the same seeded rig through
both and requires identical traces.  :class:`OracleTracer` is the tracer
of that time, with its per-trace id map and no recorded traces, and
:func:`oracle_figures` derives a request's figures the way
:class:`~repro.core.router.RoutedRequest` did on every access.
"""

import collections
import itertools

from repro.common.errors import ConfigurationError, InvocationError
from repro.common.units import Money
from repro.core.retry import RetriedInvocation
from repro.core.router import RoutedRequest
from repro.obs.trace import Span, Trace


def oracle_retry_invoke(cloud, deployment, policy, payload=None,
                        client=None, bill_category="invocation",
                        tracer=None, parent=None):
    """The retry loop with its ``placement``/``retry-hold`` spans."""
    if payload is None and hasattr(deployment.handler, "default_payload"):
        payload = deployment.handler.default_payload
    bus = cloud.bus
    attempts = []
    hold_costs = []
    hold_cost = Money(0)
    elapsed = 0.0  # modeled client-side time since the first attempt
    for attempt in range(policy.max_retries + 1):
        last_chance = attempt == policy.max_retries
        banned = () if last_chance else sorted(policy.banned_cpus)
        attempt_payload = payload
        if payload is not None and hasattr(payload, "with_banned_cpus"):
            attempt_payload = payload.with_banned_cpus(banned)
        start = cloud.clock.now + elapsed
        try:
            invocation = cloud.invoke(
                deployment, payload=attempt_payload,
                force_new=attempt > 0, client=client,
                bill_category=bill_category)
        except InvocationError as error:
            if bus.enabled:
                bus.emit("retry.abort", cloud.clock.now,
                         zone=deployment.zone_id, attempt=attempt,
                         reason=error.reason)
            return RetriedInvocation(None, attempts, hold_cost,
                                     executed=False, error=error,
                                     hold_costs=hold_costs)
        attempts.append(invocation)
        elapsed += invocation.latency_s
        accepted = (last_chance
                    or invocation.cpu_key not in policy.banned_cpus)
        if tracer is not None and parent is not None:
            span = tracer.start_span("placement", parent, start,
                                     attempt=attempt,
                                     cpu=invocation.cpu_key,
                                     banned=not accepted)
            span.finish(start + invocation.latency_s)
        if accepted:
            return RetriedInvocation(invocation, attempts, hold_cost,
                                     executed=True, hold_costs=hold_costs)
        if bus.enabled:
            bus.emit("retry.attempt", cloud.clock.now,
                     zone=deployment.zone_id, cpu=invocation.cpu_key,
                     attempt=attempt)
        # Banned CPU: hold the FI so the re-issue lands elsewhere.
        if policy.hold_seconds > 0:
            bill = cloud.hold(deployment, invocation, policy.hold_seconds,
                              bill_category="retry-hold")
            hold_costs.append(bill.total)
            hold_cost = hold_cost + bill.total
            if tracer is not None and parent is not None:
                hold_start = cloud.clock.now + elapsed
                tracer.start_span(
                    "retry-hold", parent, hold_start,
                    cpu=invocation.cpu_key,
                    cost_usd=float(bill.total)).finish(
                        hold_start + policy.hold_seconds)
            if bus.enabled:
                bus.emit("retry.hold", cloud.clock.now,
                         zone=deployment.zone_id,
                         cpu=invocation.cpu_key,
                         hold_s=policy.hold_seconds,
                         cost_usd=float(bill.total))
    raise AssertionError("unreachable: loop always returns")


def oracle_route(router, decision=None):
    """``SmartRouter.route`` with the trace built span by span as it runs."""
    obs = router.obs
    tracer = obs.tracer if obs is not None and obs.enabled else None
    now = router.cloud.clock.now
    root = None
    if tracer is not None:
        root = tracer.start_trace("request", now,
                                  workload=router.workload.name,
                                  policy=router.policy.name)
    if decision is None:
        decision = router.decide()
        if root is not None:
            tracer.start_span("decide", root, now,
                              zone=decision.zone_id).finish(now)
    deployment = router._deployment_for(decision.zone_id)
    dispatch = None
    if root is not None:
        dispatch = tracer.start_span("dispatch", root, now,
                                     zone=decision.zone_id)
    health = router.health
    try:
        if decision.retry_policy is not None:
            outcome = oracle_retry_invoke(
                router.cloud, deployment, decision.retry_policy,
                payload=router._payload, client=router.client,
                tracer=tracer, parent=dispatch)
            if outcome.failed:
                outcome.error.partial = outcome
                raise outcome.error
        else:
            outcome = router.cloud.invoke(deployment,
                                          payload=router._payload,
                                          client=router.client)
    except InvocationError as error:
        if health is not None:
            health.record_failure(decision.zone_id, now,
                                  reason=error.reason)
        if root is not None:
            dispatch.finish(now).tag(error=error.reason)
            root.finish(now)
        raise
    request = RoutedRequest(decision, outcome)
    if health is not None:
        health.record_success(decision.zone_id, now,
                              latency_s=request.latency_s)
    if root is not None:
        done = now + request.latency_s
        dispatch.finish(done).tag(cpu=request.cpu_key,
                                  retries=request.retries)
        tracer.start_span("billing", root, done,
                          cost_usd=float(request.cost)).finish(done)
        root.finish(done)
    if router.passive:
        router.store.record_observation(decision.zone_id, request.cpu_key,
                                        timestamp=router.cloud.clock.now)
    if router.telemetry is not None:
        router.telemetry.record(request, workload=router.workload.name,
                                policy=router.policy.name, timestamp=now)
    return request


def oracle_figures(outcome):
    """``(retries, cost, latency_s, billed_runtime_s)`` of an outcome."""
    if isinstance(outcome, RetriedInvocation):
        return (outcome.retries, outcome.total_cost, outcome.total_latency,
                outcome.billed_runtime)
    return 0, outcome.bill.total, outcome.latency_s, outcome.runtime_s


class OracleTracer(object):
    """The tracer as it was before recorded traces: every span is built
    when it starts.  Creates spans and retains the most recent completed
    traces.

    The store is bounded (``max_traces``); older traces are evicted FIFO.
    Traces are retained from creation (not completion) so an abandoned
    trace is still inspectable.
    """

    def __init__(self, max_traces=256):
        if max_traces < 1:
            raise ConfigurationError("max_traces must be >= 1")
        self._traces = collections.deque(maxlen=int(max_traces))
        self._by_id = {}
        self._next_trace_id = itertools.count(1)
        self._next_span_id = itertools.count(1)

    # -- span creation ------------------------------------------------------
    def start_trace(self, name, timestamp, **tags):
        """Open a new root span (and the trace that owns it)."""
        trace_id = next(self._next_trace_id)
        root = Span(trace_id, next(self._next_span_id), None, name,
                    timestamp, tags)
        trace = Trace(trace_id, root)
        if len(self._traces) == self._traces.maxlen:
            evicted = self._traces[0]
            self._by_id.pop(evicted.trace_id, None)
        self._traces.append(trace)
        self._by_id[trace_id] = trace
        return root

    def start_span(self, name, parent, timestamp, **tags):
        """Open a child span under ``parent`` (any span of a live trace)."""
        if parent is None:
            raise ConfigurationError(
                "child spans need a parent; use start_trace for roots")
        trace = self._by_id.get(parent.trace_id)
        if trace is None:
            raise ConfigurationError(
                "trace {} was evicted; cannot extend it".format(
                    parent.trace_id))
        span = Span(parent.trace_id, next(self._next_span_id),
                    parent.span_id, name, timestamp, tags)
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
        trace = self._by_id.get(parent.trace_id)
        if trace is None:
            raise ConfigurationError(
                "trace {} was evicted; cannot graft onto it".format(
                    parent.trace_id))
        id_map = {}
        grafted = []
        for payload in span_dicts:
            parent_id = id_map.get(payload.get("parent_id"), parent.span_id)
            span = Span(parent.trace_id, next(self._next_span_id), parent_id,
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
        traces = list(self._traces)
        if complete_only:
            traces = [t for t in traces if t.complete]
        return traces

    def trace(self, trace_id):
        try:
            return self._by_id[trace_id]
        except KeyError:
            raise ConfigurationError(
                "unknown (or evicted) trace {}".format(trace_id))

    def last_trace(self, complete_only=True):
        """The most recent (complete) trace, or None."""
        for trace in reversed(self._traces):
            if not complete_only or trace.complete:
                return trace
        return None

    def __len__(self):
        return len(self._traces)

    def __repr__(self):
        return "Tracer(traces={})".format(len(self))
