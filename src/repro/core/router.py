"""The SmartRouter: policy-driven request routing over the sky mesh.

For each request (or burst) the router builds a
:class:`~repro.core.policies.RoutingView` from the characterization store,
asks its policy for a :class:`RoutingDecision`, resolves the target mesh
deployment, and executes — directly or through the
:class:`~repro.core.retry.RetryEngine` when the decision carries a retry
policy.  Optionally it feeds every observed CPU back into the store
(*passive characterization*, the paper's future-work path).
"""

from repro.common.errors import (
    ConfigurationError,
    FAILOVER_REASONS,
    InvocationError,
    RETRYABLE_REASONS,
)
from repro.core.optimizer import ZoneRanker
from repro.core.policies import RoutingView
from repro.core.resilience import (
    BreakerOpenError,
    ResilienceConfig,
    ResilientOutcome,
)
from repro.core.retry import RetryEngine, RetriedInvocation


class RoutedRequest(object):
    """Uniform view over direct and retried invocations.

    The request's figures are derived once, here: ``retries``, ``cost``
    (:class:`~repro.common.units.Money`), ``latency_s``,
    ``billed_runtime_s`` and ``cold`` — True when the invocation that
    served the request started a new FI.
    """

    __slots__ = ("decision", "outcome", "zone_id", "cpu_key", "retries",
                 "cost", "latency_s", "billed_runtime_s", "cold")

    def __init__(self, decision, outcome):
        self.decision = decision
        self.outcome = outcome
        self.zone_id = decision.zone_id
        self.cpu_key = outcome.cpu_key
        if isinstance(outcome, RetriedInvocation):
            self.retries = outcome.retries
            self.cost = outcome.total_cost
            self.latency_s = outcome.total_latency
            self.billed_runtime_s = outcome.billed_runtime
            self.cold = not outcome.final.reused
        else:
            self.retries = 0
            self.cost = outcome.bill.total
            self.latency_s = outcome.latency_s
            self.billed_runtime_s = outcome.runtime_s
            self.cold = not outcome.reused

    def __repr__(self):
        return "RoutedRequest(zone={}, cpu={}, retries={}, cost={})".format(
            self.zone_id, self.cpu_key, self.retries, self.cost)


# -- request traces ------------------------------------------------------------
#: Tag keys of a request trace's ``dispatch`` span, by how it ended.
_SERVED = ("zone", "cpu", "retries")
_REFUSED = ("zone", "error")
_OPEN = ("zone",)
_LAYOUTS = {}


def _request_layout(decided, dispatch, attempts, holds):
    """The :meth:`~repro.obs.trace.Tracer.record` layout of a request
    trace: ``request`` → (``decide``) → ``dispatch`` (→ ``placement`` per
    attempt, each but the accepted one followed by its ``retry-hold``) →
    ``billing`` when served.  ``dispatch`` None means the request never got
    that far."""
    key = (decided, dispatch, attempts, holds)
    layout = _LAYOUTS.get(key)
    if layout is None:
        spans = [("request", None, ("workload", "policy"))]
        if decided:
            spans.append(("decide", 0, ("zone",)))
        if dispatch is not None:
            parent = len(spans)
            spans.append(("dispatch", 0, dispatch))
            for attempt in range(attempts):
                spans.append(("placement", parent,
                              ("attempt", "cpu", "banned")))
                if attempt < holds:
                    spans.append(("retry-hold", parent, ("cpu", "cost_usd")))
            if dispatch is _SERVED:
                spans.append(("billing", 0, ("cost_usd",)))
        layout = _LAYOUTS[key] = tuple(spans)
    return layout


class SmartRouter(object):
    """Routes one workload's requests according to a policy."""

    def __init__(self, cloud, mesh, store, policy, workload,
                 candidate_zones, memory_mb=2048, arch="x86_64",
                 function_name="dynamic", client=None, passive=False,
                 telemetry=None, obs=None, health=None, resilience=None):
        self.cloud = cloud
        self.mesh = mesh
        self.store = store
        self.policy = policy
        self.workload = workload
        self.candidate_zones = list(candidate_zones)
        if not self.candidate_zones:
            raise ConfigurationError("router needs candidate zones")
        self.memory_mb = memory_mb
        self.arch = arch
        self.function_name = function_name
        self.client = client
        self.passive = passive
        self.telemetry = telemetry
        self.obs = obs
        self.health = health
        self.resilience = resilience
        if health is not None:
            health.attach_bus(self._event_bus())
        self._ranker = ZoneRanker(store, cloud=cloud)
        self._retry_engine = RetryEngine(cloud)
        self._factors = workload.cpu_factors()
        self._payload = workload.payload()

    def _event_bus(self):
        """Where router-level events (failover, hedge, backoff) go."""
        obs = self.obs
        if obs is not None and obs.enabled:
            return obs.bus
        return self.cloud.bus

    # -- views ---------------------------------------------------------------------
    def current_view(self, now=None):
        now = self.cloud.clock.now if now is None else now
        candidates = self.candidate_zones
        if self.health is not None:
            candidates = self.health.routable_zones(candidates, now)
        return RoutingView(
            characterizations=self.store.view(self.candidate_zones,
                                              now=now),
            factors=self._factors,
            base_seconds=self.workload.base_seconds,
            ranker=self._ranker,
            candidate_zones=candidates,
            client=self.client,
            now=now,
            health=self.health,
        )

    def decide(self, now=None):
        """Ask the policy for a routing decision under the current view."""
        return self.policy.decide(self.current_view(now=now))

    def _deployment_for(self, zone_id):
        return self.mesh.endpoint(zone_id, self.memory_mb, self.arch,
                                  self.function_name)

    # -- execution -------------------------------------------------------------------
    def route(self, decision=None):
        """Route a single request; returns a :class:`RoutedRequest`.

        When the router carries an :class:`~repro.obs.Observability`, each
        call records one trace — ``request`` → (``decide``) →
        ``dispatch`` (→ ``placement``/``retry-hold`` per retry attempt) →
        ``billing`` — on sim-clock timestamps, once the outcome is known;
        its spans are built only if someone reads it.  A refused request
        (:class:`~repro.common.errors.InvocationError`) ends its spans at
        the request's start with the reason tagged on ``dispatch``; any
        other exception leaves the trace open where it struck.  When the
        router carries a :class:`~repro.core.telemetry.RoutingTelemetry`
        the outcome is recorded there with the real sim-clock timestamp.
        """
        obs = self.obs
        tracer = obs.tracer if obs is not None and obs.enabled else None
        now = self.cloud.clock.now
        decided = decision is None
        try:
            if decided:
                decision = self.decide()
            deployment = self._deployment_for(decision.zone_id)
        except BaseException:
            if tracer is not None:
                # A failed decide leaves the root alone; a failed lookup
                # leaves the root and its decide span.
                self._record_trace(tracer, now,
                                   decided and decision is not None,
                                   decision, None)
            raise
        retry_policy = decision.retry_policy
        health = self.health
        try:
            if retry_policy is not None:
                outcome = self._retry_engine.invoke(
                    deployment, retry_policy, payload=self._payload,
                    client=self.client)
                if outcome.failed:
                    # Surface the structured partial outcome alongside the
                    # error so callers can account attempts and hold cost.
                    outcome.error.partial = outcome
                    raise outcome.error
            else:
                outcome = self.cloud.invoke(deployment, payload=self._payload,
                                            client=self.client)
        except BaseException as error:
            refused = isinstance(error, InvocationError)
            if refused and health is not None:
                health.record_failure(decision.zone_id, now,
                                      reason=error.reason)
            if tracer is not None:
                partial = (getattr(error, "partial", None)
                           if retry_policy is not None else None)
                self._record_trace(tracer, now, decided, decision,
                                   _REFUSED if refused else _OPEN,
                                   retried=partial,
                                   reason=error.reason if refused else None)
            raise
        request = RoutedRequest(decision, outcome)
        if health is not None:
            health.record_success(decision.zone_id, now,
                                  latency_s=request.latency_s)
        if tracer is not None:
            self._record_trace(
                tracer, now, decided, decision, _SERVED,
                retried=outcome if retry_policy is not None else None,
                request=request)
        if self.passive:
            self.store.record_observation(decision.zone_id,
                                          request.cpu_key,
                                          timestamp=self.cloud.clock.now)
        if self.telemetry is not None:
            self.telemetry.record(request, workload=self.workload.name,
                                  policy=self.policy.name, timestamp=now)
        return request

    def _record_trace(self, tracer, now, decided, decision, dispatch,
                      retried=None, request=None, reason=None):
        """Record one request's trace (see :meth:`route`) as a single
        :meth:`~repro.obs.trace.Tracer.record` entry.

        ``dispatch`` is the dispatch span's tag keys — ``_SERVED``,
        ``_REFUSED`` or ``_OPEN`` — or None when the request failed before
        dispatch.  Retry attempts are laid out on the client's modeled
        clock exactly as :meth:`RetryEngine.invoke` runs them.
        """
        if dispatch is _SERVED:
            end = now + request.latency_s
        elif dispatch is _REFUSED:
            end = now
        else:
            end = None
        values = [now, end, self.workload.name, self.policy.name]
        if decided:
            values += (now, now, decision.zone_id)
        attempts = holds = 0
        if dispatch is not None:
            values += (now, end, decision.zone_id)
            if dispatch is _SERVED:
                values += (request.cpu_key, request.retries)
            elif dispatch is _REFUSED:
                values.append(reason)
            if retried is not None:
                attempts = len(retried.attempts)
                hold_costs = retried.hold_costs
                holds = len(hold_costs)
                hold_s = decision.retry_policy.hold_seconds
                accepted = attempts - 1 if retried.executed else -1
                elapsed = 0.0
                for attempt, invocation in enumerate(retried.attempts):
                    start = now + elapsed
                    elapsed += invocation.latency_s
                    values += (start, start + invocation.latency_s, attempt,
                               invocation.cpu_key, attempt != accepted)
                    if attempt < holds:
                        hold_start = now + elapsed
                        values += (hold_start, hold_start + hold_s,
                                   invocation.cpu_key,
                                   float(hold_costs[attempt]))
            if dispatch is _SERVED:
                values += (end, end, float(request.cost))
        tracer.record(_request_layout(decided, dispatch, attempts, holds),
                      values)

    def route_with_failover(self, max_zones=None):
        """Route one request, failing over across candidate zones.

        Sky computing's availability story: if the chosen zone is
        saturated, throttled, or transiently failing
        (:data:`~repro.common.errors.FAILOVER_REASONS`), drop it from this
        request's view and re-decide, until a zone serves the request or
        the candidates are exhausted (the last error propagates).  Handler
        errors propagate immediately — the bug follows the request to any
        zone.  ``max_zones`` bounds the attempts.
        """
        remaining = list(self.candidate_zones)
        attempts = max_zones if max_zones is not None else len(remaining)
        last_error = None
        original = self.candidate_zones
        bus = self._event_bus()
        try:
            for hop in range(attempts):
                if not remaining:
                    break
                self.candidate_zones = remaining
                decision = self.decide()
                try:
                    return self.route(decision)
                except InvocationError as error:
                    if error.reason not in FAILOVER_REASONS:
                        raise
                    last_error = error
                    remaining = [z for z in remaining
                                 if z != decision.zone_id]
                    if bus.enabled:
                        bus.emit("router.failover", self.cloud.clock.now,
                                 zone=decision.zone_id, reason=error.reason,
                                 hop=hop, remaining=len(remaining))
        finally:
            self.candidate_zones = original
        if last_error is not None:
            raise last_error
        raise ConfigurationError("no candidate zones left to fail over to")

    def _decide_over(self, zones):
        """Ask the policy to decide over a temporary candidate set."""
        original = self.candidate_zones
        self.candidate_zones = list(zones)
        try:
            return self.decide()
        finally:
            self.candidate_zones = original

    # -- resilient execution ---------------------------------------------------------
    def route_resilient(self, config=None):
        """Route one request through the full resilience stack.

        Per attempt: filter candidates through breaker state, decide, gate
        the chosen zone through its (mutating) breaker, invoke.  On a
        retryable error (:data:`~repro.common.errors.RETRYABLE_REASONS`)
        accrue a full-jitter backoff delay; on any failover-worthy error
        exclude the zone for this request and re-decide.  On success,
        optionally hedge per ``config.hedge``.  Requires ``health`` (a
        :class:`~repro.core.health.ZoneHealthTracker`); returns a
        :class:`~repro.core.resilience.ResilientOutcome`.
        """
        health = self.health
        if health is None:
            raise ConfigurationError(
                "route_resilient requires a ZoneHealthTracker; pass "
                "health= to the router")
        if config is None:
            config = self.resilience
            if config is None:
                config = ResilienceConfig()
        if not health.tripped_breakers:
            # Quiescent fast path: every breaker is closed, so candidate
            # filtering and the mutating gate are both no-ops — one
            # decide, one route, wrap.  This is what keeps the no-fault
            # overhead of the hardened path within the 5 % gate.
            now = self.cloud.clock.now
            decision = self.decide(now=now)
            try:
                request = self.route(decision)
            except InvocationError as error:
                return self._route_resilient_loop(config, error, decision)
            if config.hedge is None:
                return ResilientOutcome(request)
            return self._maybe_hedge(request, config, 1, 0.0, 0, now,
                                     self._event_bus())
        return self._route_resilient_loop(config, None, None)

    def _route_resilient_loop(self, config, error, decision):
        """The full per-attempt loop behind :meth:`route_resilient`.

        ``error``/``decision`` carry a failure the fast path already
        suffered; it is processed as attempt 0 (its sim side effects —
        billing, capacity — have already happened, so it must count
        against the attempt budget, not be replayed).
        """
        health = self.health
        bus = self._event_bus()
        clock = self.cloud.clock
        excluded = set()
        backoff_total = 0.0
        failovers = 0
        last_error = None
        attempt = 0
        now = clock.now
        while attempt < config.max_attempts:
            if error is None:
                now = clock.now
                zones = self.candidate_zones
                if excluded:
                    zones = [z for z in zones if z not in excluded]
                    if not zones:
                        # Every candidate failed this request already;
                        # degrade gracefully by reopening the full set
                        # rather than giving up with attempts in budget.
                        excluded.clear()
                        zones = self.candidate_zones
                routable = health.routable_zones(zones, now)
                if routable is self.candidate_zones:
                    decision = self.decide(now=now)
                else:
                    decision = self._decide_over(routable)
                    if not health.allow(decision.zone_id, now):
                        last_error = BreakerOpenError(decision.zone_id)
                        excluded.add(decision.zone_id)
                        failovers += 1
                        if bus.enabled:
                            bus.emit("router.failover", now,
                                     zone=decision.zone_id,
                                     reason="breaker_open", hop=attempt,
                                     remaining=len(zones) - 1)
                        attempt += 1
                        continue
                try:
                    request = self.route(decision)
                except InvocationError as caught:
                    error = caught
                else:
                    if config.hedge is None:
                        return ResilientOutcome(request,
                                                attempts=attempt + 1,
                                                backoff_s=backoff_total,
                                                failovers=failovers)
                    return self._maybe_hedge(request, config, attempt + 1,
                                             backoff_total, failovers,
                                             now, bus)
            if error.reason not in FAILOVER_REASONS:
                raise error
            last_error = error
            if error.reason in RETRYABLE_REASONS:
                delay = config.backoff.delay(attempt)
                backoff_total += delay
                if bus.enabled:
                    bus.emit("router.backoff", now, zone=decision.zone_id,
                             delay_s=delay, attempt=attempt,
                             reason=error.reason)
            if config.failover:
                excluded.add(decision.zone_id)
                failovers += 1
                if bus.enabled:
                    bus.emit("router.failover", now, zone=decision.zone_id,
                             reason=error.reason, hop=attempt,
                             remaining=(len(self.candidate_zones)
                                        - len(excluded)))
            elif error.reason not in RETRYABLE_REASONS:
                raise error
            error = None
            attempt += 1
        assert last_error is not None
        raise last_error

    def _maybe_hedge(self, request, config, attempts, backoff_s, failovers,
                     now, bus):
        """Wrap ``request`` in a ResilientOutcome, hedging if warranted."""
        hedge = config.hedge
        threshold = (hedge.threshold(self.health, request.zone_id)
                     if hedge is not None else None)
        if threshold is None or request.latency_s <= threshold:
            return ResilientOutcome(request, attempts=attempts,
                                    backoff_s=backoff_s,
                                    failovers=failovers)
        alternates = [z for z in self.candidate_zones
                      if z != request.zone_id]
        if alternates:
            alternates = self.health.routable_zones(alternates, now)
        if not alternates:
            return ResilientOutcome(request, attempts=attempts,
                                    backoff_s=backoff_s,
                                    failovers=failovers)
        decision = self._decide_over(alternates)
        try:
            hedge_request = self.route(decision)
        except InvocationError:
            if bus.enabled:
                bus.emit("router.hedge", now, zone=request.zone_id,
                         hedge_zone=decision.zone_id, won=False,
                         primary_latency_s=request.latency_s,
                         hedge_latency_s=None)
            return ResilientOutcome(request, attempts=attempts,
                                    backoff_s=backoff_s, hedged=True,
                                    hedge_won=False, failovers=failovers)
        # The hedge fires only once the primary has been in flight for
        # ``threshold`` seconds, so its effective completion time is
        # threshold + its own latency.
        hedge_total = threshold + hedge_request.latency_s
        won = hedge_total < request.latency_s
        effective = min(request.latency_s, hedge_total) + backoff_s
        if bus.enabled:
            bus.emit("router.hedge", now, zone=request.zone_id,
                     hedge_zone=hedge_request.zone_id, won=won,
                     primary_latency_s=request.latency_s,
                     hedge_latency_s=hedge_request.latency_s)
        return ResilientOutcome(request, hedge_request=hedge_request,
                                attempts=attempts, backoff_s=backoff_s,
                                hedged=True, hedge_won=won,
                                failovers=failovers, latency_s=effective)

    def route_burst(self, n_requests, decide_once=True):
        """Route a burst of ``n_requests``.

        ``decide_once`` (the default) makes one routing decision for the
        whole burst, matching how a batch dispatcher works; otherwise every
        request re-decides (useful when passive observations shift the view
        mid-burst).
        """
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        decision = self.decide() if decide_once else None
        return [self.route(decision) for _ in range(n_requests)]

    def dispatch_batch(self, n_requests, decision=None, keep_latencies=False,
                       bill_category="serve"):
        """Resolve ``n_requests`` coalesced requests in one columnar poll.

        The batch counterpart of :meth:`route_burst`: one routing decision
        (or the caller's pre-made one), one deployment lookup, one
        :meth:`~repro.cloudsim.Cloud.poll_batch` with the workload payload
        threaded through — no per-request objects.  Returns
        ``(decision, BatchPollResult)``; zone health and passive
        observations are updated from the aggregate outcome so the serving
        gateway's steady-state traffic feeds the same routing view as the
        scalar path.
        """
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        if decision is None:
            decision = self.decide()
        deployment = self._deployment_for(decision.zone_id)
        result = self.cloud.poll_batch(
            deployment, n_requests, bill_category=bill_category,
            payload=self._payload, keep_latencies=keep_latencies)
        now = self.cloud.clock.now
        health = self.health
        if health is not None:
            if result.served:
                health.record_success(decision.zone_id, now,
                                      latency_s=result.mean_latency_s)
            for _ in range(result.failed):
                health.record_failure(decision.zone_id, now,
                                      reason="saturated")
        if self.passive and result.served:
            # One aggregate timestamp per CPU group, mirroring what the
            # scalar path would have recorded request by request (the
            # store caps observations per CPU anyway).
            for cpu_key in result.request_cpu_counts:
                self.store.record_observation(decision.zone_id, cpu_key,
                                              timestamp=now)
        return decision, result

    def __repr__(self):
        return "SmartRouter(policy={}, workload={!r})".format(
            self.policy.name, self.workload.name)
