"""The retry method (paper §3.5, Figure 10).

When a request lands, the dynamic function first checks the FI's CPU
against a **banned list** carried in the payload.  On a banned CPU it
returns immediately (a few ms); the client then *holds* that FI busy for
~150 ms (so the platform cannot route the re-issued request back onto it)
and fires a fresh request.  Two tunings from the paper:

* **retry slow** — ban the two slowest CPUs observed in the zone;
* **focus fastest** — ban everything except the single fastest CPU.

Each retry costs the CPU-check runtime plus the hold — billed — so the win
depends on the zone's CPU mix (the trade-off EX-5 quantifies).
"""

from repro.common.errors import ConfigurationError, InvocationError
from repro.common.units import Money
from repro.cloudsim.cpu import fastest_cpu, slowest_cpus

DEFAULT_HOLD_SECONDS = 0.150
DEFAULT_MAX_RETRIES = 10


class RetryPolicy(object):
    """Which CPUs to refuse, and how hard to try."""

    __slots__ = ("banned_cpus", "max_retries", "hold_seconds")

    def __init__(self, banned_cpus, max_retries=DEFAULT_MAX_RETRIES,
                 hold_seconds=DEFAULT_HOLD_SECONDS):
        self.banned_cpus = frozenset(banned_cpus)
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if hold_seconds < 0:
            raise ConfigurationError("hold_seconds must be >= 0")
        self.max_retries = int(max_retries)
        self.hold_seconds = float(hold_seconds)

    # -- the paper's two variants ------------------------------------------------
    @classmethod
    def retry_slow(cls, cpu_keys, factors, n_slowest=2, **kwargs):
        """Ban the ``n_slowest`` CPUs among ``cpu_keys``.

        ``factors`` maps cpu_key -> relative runtime (higher = slower), so
        "slowest" means the largest factors.
        """
        cpu_keys = list(cpu_keys)
        if len(cpu_keys) <= n_slowest:
            raise ConfigurationError(
                "cannot ban {} of {} CPUs".format(n_slowest, len(cpu_keys)))
        banned = slowest_cpus(cpu_keys, n_slowest,
                              speed_of=lambda key: -factors[key])
        return cls(banned, **kwargs)

    @classmethod
    def focus_fastest(cls, cpu_keys, factors, **kwargs):
        """Ban every CPU except the fastest (smallest runtime factor)."""
        cpu_keys = list(cpu_keys)
        if not cpu_keys:
            raise ConfigurationError("no CPUs to choose from")
        keep = fastest_cpu(cpu_keys, speed_of=lambda key: -factors[key])
        return cls([key for key in cpu_keys if key != keep], **kwargs)

    def is_banned(self, cpu_key):
        return cpu_key in self.banned_cpus

    def __repr__(self):
        return "RetryPolicy(banned={}, max_retries={}, hold={}ms)".format(
            sorted(self.banned_cpus), self.max_retries,
            int(self.hold_seconds * 1000))


class RetriedInvocation(object):
    """The outcome of an invocation run under a retry policy.

    When the platform fails mid-loop (saturation, throttle, injected
    fault) the engine returns a *failed* outcome — ``executed`` False,
    ``error`` set, ``final`` None — that still accounts every completed
    attempt and every dollar of hold cost instead of losing them in a
    raised exception.  ``hold_costs`` lists the bill total of each hold in
    order: hold ``i`` followed attempt ``i``, and ``hold_cost`` is their
    sum.
    """

    __slots__ = ("final", "attempts", "hold_cost", "hold_costs", "executed",
                 "error")

    def __init__(self, final, attempts, hold_cost, executed, error=None,
                 hold_costs=()):
        self.final = final
        self.attempts = list(attempts)
        self.hold_cost = hold_cost
        self.hold_costs = list(hold_costs)
        self.executed = executed
        self.error = error

    @property
    def failed(self):
        return self.error is not None

    @property
    def retries(self):
        return max(0, len(self.attempts) - 1)

    @property
    def cpu_key(self):
        return self.final.cpu_key if self.final is not None else None

    @property
    def total_cost(self):
        return sum((inv.bill.total for inv in self.attempts),
                   Money(0)) + self.hold_cost

    @property
    def total_latency(self):
        """Client-observed latency: every attempt's round trip plus holds.

        The client only re-issues after the declined response returns, and
        holds overlap the re-issue, so holds bound the inter-attempt gap.
        """
        latency = sum(inv.latency_s for inv in self.attempts)
        return latency

    @property
    def billed_runtime(self):
        return sum(inv.runtime_s for inv in self.attempts)

    def __repr__(self):
        if self.failed:
            reason = getattr(self.error, "reason",
                             type(self.error).__name__)
            return ("RetriedInvocation(FAILED {}, attempts={}, "
                    "hold_cost={})".format(reason, len(self.attempts),
                                           self.hold_cost))
        return "RetriedInvocation(cpu={}, retries={}, cost={})".format(
            self.cpu_key, self.retries, self.total_cost)


class RetryEngine(object):
    """Drives invoke → CPU check → hold → re-issue loops."""

    def __init__(self, cloud):
        self.cloud = cloud

    def invoke(self, deployment, policy, payload=None, client=None,
               bill_category="invocation"):
        """Run one request under ``policy``; returns RetriedInvocation.

        If the retry budget is exhausted the final attempt executes on
        whatever CPU it got (the paper's behaviour: retries trade cost for
        placement quality but never drop work).

        If the platform errors mid-loop (saturation, throttle, transient
        fault) the engine returns a **failed** :class:`RetriedInvocation`
        — ``error`` set, ``executed`` False — preserving the attempts and
        hold cost already spent rather than losing them in the raise.  Any
        other exception propagates with that partial outcome attached as
        its ``partial`` attribute.

        Attempt ``i`` starts at the sum of the earlier attempts' latencies
        on the client's modeled clock, and hold ``i`` at the sum including
        attempt ``i``; the router's request trace is built from exactly
        that (see :meth:`repro.core.router.SmartRouter.route`).
        """
        if payload is None and hasattr(deployment.handler,
                                       "default_payload"):
            payload = deployment.handler.default_payload
        bus = self.cloud.bus
        attempts = []
        hold_costs = []
        hold_cost = Money(0)
        try:
            for attempt in range(policy.max_retries + 1):
                last_chance = attempt == policy.max_retries
                banned = () if last_chance else sorted(policy.banned_cpus)
                attempt_payload = payload
                if payload is not None and hasattr(payload,
                                                   "with_banned_cpus"):
                    attempt_payload = payload.with_banned_cpus(banned)
                try:
                    invocation = self.cloud.invoke(
                        deployment, payload=attempt_payload,
                        force_new=attempt > 0, client=client,
                        bill_category=bill_category)
                except InvocationError as error:
                    if bus.enabled:
                        bus.emit("retry.abort", self.cloud.clock.now,
                                 zone=deployment.zone_id, attempt=attempt,
                                 reason=error.reason)
                    return RetriedInvocation(None, attempts, hold_cost,
                                             executed=False, error=error,
                                             hold_costs=hold_costs)
                attempts.append(invocation)
                if (last_chance
                        or invocation.cpu_key not in policy.banned_cpus):
                    return RetriedInvocation(invocation, attempts,
                                             hold_cost, executed=True,
                                             hold_costs=hold_costs)
                if bus.enabled:
                    bus.emit("retry.attempt", self.cloud.clock.now,
                             zone=deployment.zone_id,
                             cpu=invocation.cpu_key, attempt=attempt)
                # Banned CPU: hold the FI so the re-issue lands elsewhere.
                if policy.hold_seconds > 0:
                    bill = self.cloud.hold(deployment, invocation,
                                           policy.hold_seconds,
                                           bill_category="retry-hold")
                    cost = bill.total
                    hold_costs.append(cost)
                    hold_cost = hold_cost + cost
                    if bus.enabled:
                        bus.emit("retry.hold", self.cloud.clock.now,
                                 zone=deployment.zone_id,
                                 cpu=invocation.cpu_key,
                                 hold_s=policy.hold_seconds,
                                 cost_usd=float(cost))
        except Exception as error:
            error.partial = RetriedInvocation(None, attempts, hold_cost,
                                              executed=False, error=error,
                                              hold_costs=hold_costs)
            raise
        raise AssertionError("unreachable: loop always returns")
