"""Stateful property-based testing of availability-zone invariants.

A hypothesis rule-based machine drives a zone through arbitrary
interleavings of batch placements, single invocations, holds, time
advances, and rebalances, checking after every step that the accounting
invariants hold:

* occupied slots never exceed capacity;
* free + occupied always equals capacity;
* placement results conserve requests (served + failed == requested);
* observed CPU keys always belong to the zone's pools;
* every warm reuse from ``invoke_one`` picks the FI a naive first-idle scan
  of the deployment's identified FIs (in admit order) picks;
* advancing past the keep-alive with no traffic empties the zone, except
  for pinned min-instance floors.

The machine runs under the default sliding keep-alive and again under the
fixed-lease and container-reuse policies of the provider adapters.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.errors import SaturationError
from repro.cloudsim.adapters import (
    ContainerReuseKeepAlive,
    FixedLeaseKeepAlive,
)
from repro.cloudsim.az import AvailabilityZone, ScalingPolicy
from repro.cloudsim.host import HostPool
from repro.simclock import SimClock


def _first_idle(fis, now):
    """The naive warm lookup: the first idle FI in admit order, or None."""
    for fi in fis:
        if fi.busy_until <= now < fi.expire_at:
            return fi
    return None


class ZoneMachine(RuleBasedStateMachine):
    keepalive_policy = None

    @initialize()
    def setup(self):
        self.clock = SimClock()
        self.zone = AvailabilityZone(
            "prop-1a",
            [
                HostPool("xeon-2.5", hosts=6, slots_per_host=16),
                HostPool("xeon-3.0", hosts=3, slots_per_host=16),
                HostPool("amd-epyc", hosts=1, slots_per_host=16,
                         affinity=0.5),
            ],
            self.clock,
            keepalive=120.0,
            scaling=ScalingPolicy(max_surge_slots=0),
            rng=7,
            keepalive_policy=self.keepalive_policy,
        )
        self.base_capacity = self.zone.capacity
        self.live_fis = []
        self.admitted = {}  # deployment -> identified FIs in admit order

    # -- actions -----------------------------------------------------------------
    # Batches also land on two of the invoked services, so warm claims on
    # the batch path touch identified FIs the scalar lookup indexes.
    @rule(n=st.integers(min_value=1, max_value=120),
          duration=st.floats(min_value=0.05, max_value=5.0),
          window=st.floats(min_value=0.0, max_value=2.0),
          dep=st.sampled_from(["fn-0", "fn-1", "svc-0", "svc-1"]))
    def place_batch(self, n, duration, window, dep):
        result = self.zone.place_batch(dep, n, duration, window)
        assert result.served + result.failed == n
        assert result.served >= 0 and result.failed >= 0
        assert sum(result.request_cpu_counts.values()) == result.served
        assert set(result.new_fi_counts) <= set(self.zone.pools)

    @rule(duration=st.floats(min_value=0.05, max_value=5.0),
          force_new=st.booleans(),
          tag=st.integers(min_value=0, max_value=3))
    def invoke_one(self, duration, force_new, tag):
        dep = "svc-{}".format(tag)
        expected = None if force_new else _first_idle(
            self.admitted.get(dep, ()), self.clock.now)
        try:
            fi, reused = self.zone.invoke_one(
                dep, lambda cpu: duration, force_new=force_new)
        except SaturationError:
            assert expected is None
            assert self.zone.free_slots() == 0
        else:
            assert fi.cpu_key in self.zone.pools
            if reused:
                assert fi is expected
            else:
                assert expected is None
                self.admitted.setdefault(dep, []).append(fi)
            self.live_fis.append(fi)

    @rule(hold=st.floats(min_value=0.01, max_value=1.0),
          pick=st.integers(min_value=0, max_value=10 ** 6))
    def hold_an_fi(self, hold, pick):
        # A short hold on a still-busy FI lowers its busy_until.
        live = [fi for fi in self.live_fis
                if not fi.is_expired(self.clock.now)]
        self.live_fis = live
        if live:
            self.zone.hold_instance(live[pick % len(live)], hold)

    @rule(seconds=st.floats(min_value=0.1, max_value=90.0))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(seconds=st.floats(min_value=0.01, max_value=3.0))
    def tick(self, seconds):
        # Steps shorter than a busy window: lookups land while some FIs
        # are still busy.
        self.clock.advance(seconds)

    @rule(fast_share=st.floats(min_value=0.1, max_value=0.9))
    def rebalance(self, fast_share):
        self.zone.rebalance({"xeon-2.5": 1.0 - fast_share,
                             "xeon-3.0": fast_share})

    @rule()
    def long_quiescence_empties_zone(self):
        self.clock.advance(300.0)  # past every busy window + keep-alive
        pinned = sum(bucket.count for pool in self.zone.pools.values()
                     for bucket in pool.live_buckets() if bucket._pinned)
        assert self.zone.occupied() == pinned

    # -- invariants ----------------------------------------------------------------
    @invariant()
    def slots_conserved(self):
        if not hasattr(self, "zone"):
            return
        occupied = self.zone.occupied()
        free = self.zone.free_slots()
        assert occupied >= 0
        assert free >= 0
        assert occupied + free == self.zone.capacity

    @invariant()
    def pool_local_accounting(self):
        if not hasattr(self, "zone"):
            return
        for pool in self.zone.pools.values():
            assert pool.occupied(self.clock.now) <= pool.capacity


class LeaseZoneMachine(ZoneMachine):
    keepalive_policy = FixedLeaseKeepAlive(120.0, lease_s=45.0)


class ContainerReuseZoneMachine(ZoneMachine):
    keepalive_policy = ContainerReuseKeepAlive(120.0, min_instances=2)


_SETTINGS = settings(max_examples=25, stateful_step_count=30, deadline=None)
ZoneMachine.TestCase.settings = _SETTINGS
LeaseZoneMachine.TestCase.settings = _SETTINGS
ContainerReuseZoneMachine.TestCase.settings = _SETTINGS
TestZoneStateMachine = ZoneMachine.TestCase
TestLeaseZoneStateMachine = LeaseZoneMachine.TestCase
TestContainerReuseZoneStateMachine = ContainerReuseZoneMachine.TestCase
