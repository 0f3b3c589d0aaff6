"""Event-driven capacity accounting vs. the seed's sweep-everything spec.

The expiry-heap rewrite of :class:`~repro.cloudsim.host.HostPool` promises
that every *seeded placement outcome* is bit-identical to the naive
implementation it replaced.  This module keeps that promise executable:

* :class:`NaiveHostPool` re-implements the original algorithm — full bucket
  sweep on every capacity read, no cached counter, no warm index — behind
  the same interface, including the zone hot path's internal contract
  (``_heap`` / ``_occupied`` / ``_warm`` reads);
* the campaign tests drive two identically-seeded clouds, one stock and one
  with every pool swapped for the naive spec, through a 50-poll saturation
  campaign and a 400-invocation routing campaign (warm reuse, ``force_new``
  storms, holds) and require byte-identical transcripts;
* a hypothesis state machine interleaves allocations, warm claims, splits,
  resizes, holds, and *external* bucket mutations (the background process
  shrinks counts and force-expires buckets out from under the pool) and
  checks the O(1) cached occupancy never drifts from the ground-truth
  sweep, and that every claim picks the same buckets as the naive scan.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import build_sky
from repro.cloudsim.background import BackgroundLoad
from repro.cloudsim.handlers import SleepHandler
from repro.cloudsim.host import HostPool
from repro.cloudsim.instance import FIBucket
from repro.common.errors import ConfigurationError, SaturationError
from repro.common.units import MINUTES

_NEG_INF = float("-inf")


class _AlwaysWarm(object):
    """Stands in for the warm index: every deployment *might* have warm FIs.

    The seed consulted ``claim_warm`` unconditionally; returning a truthy
    value for every key makes the zone's warm-index fast-path guard a no-op
    so the naive pool sees the same call sequence the seed did.
    """

    def get(self, key, default=None):
        return True


class NaiveHostPool(HostPool):
    """The seed's sweep-everything accounting, kept as an executable spec.

    Every capacity read re-derives occupancy from the full bucket list, the
    way the pre-heap implementation did.  The sentinel ``_heap`` entry makes
    the zone's ``heap[0][0] <= now`` expiry guards always fire, so
    ``_occupied`` is freshly recomputed before each direct read — the
    unconditional sweep the seed performed.
    """

    def __init__(self, cpu_key, hosts, slots_per_host, affinity=1.0):
        super(NaiveHostPool, self).__init__(cpu_key, hosts, slots_per_host,
                                            affinity)
        self._heap = [(_NEG_INF, 0, None)]
        self._warm = _AlwaysWarm()

    # -- the original algorithms -------------------------------------------
    def expire(self, now):
        live = []
        occupied = 0
        released = 0
        on_release = self.on_release
        for b in self._buckets:
            if b.is_expired(now):
                b._released = True
                released += b.count
                if on_release is not None:
                    on_release(b, now)
            else:
                live.append(b)
                occupied += b.count
        self._buckets = live
        self._occupied = occupied
        if released and self.bus.enabled:
            self.bus.emit("host.expire", now, zone=self.zone_id,
                          cpu=self.cpu_key, released=released)

    def allocate(self, deployment, count, now, duration, keepalive):
        if count <= 0:
            raise ConfigurationError("allocation count must be positive")
        if count > self.free_slots(now):
            raise ConfigurationError(
                "pool {} over-allocated: {} requested, {} free".format(
                    self.cpu_key, count, self.free_slots(now)))
        bucket = FIBucket(deployment, self.cpu_key, count,
                          busy_until=now + duration,
                          expire_at=now + duration + keepalive)
        self._admit(bucket)
        if self.bus.enabled:
            self.bus.emit("host.allocate", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=count)
        return bucket

    def claim_warm(self, deployment, count, now, duration, keepalive):
        remaining = int(count)
        if remaining <= 0:
            return 0
        claimed = 0
        new_buckets = []
        for bucket in self._buckets:
            if (remaining > 0 and bucket.deployment == deployment
                    and bucket.is_idle(now)):
                take = min(bucket.count, remaining)
                if take == bucket.count:
                    bucket.touch(now, duration, keepalive)
                else:
                    bucket.count -= take
                    reused = FIBucket(deployment, self.cpu_key, take,
                                      busy_until=now + duration,
                                      expire_at=now + duration + keepalive)
                    new_buckets.append(reused)
                remaining -= take
                claimed += take
        self._buckets.extend(new_buckets)
        if claimed and self.bus.enabled:
            self.bus.emit("host.reuse", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=claimed)
        return claimed

    def idle_warm(self, deployment, now):
        return sum(b.count for b in self._buckets
                   if b.deployment == deployment and b.is_idle(now))

    def hold(self, bucket, now, seconds, keepalive):
        bucket.touch(now, seconds, keepalive)

    def _admit(self, bucket):
        # Plain records, like the seed: no accounting hooks, no heap entry.
        # ``_occupied`` is advanced so direct reads between sweeps stay
        # honest; every sweep recomputes it from scratch anyway.
        bucket._pool = None
        self._buckets.append(bucket)
        self._occupied += bucket.count


def naivify(cloud):
    """Swap every pool in ``cloud`` for its :class:`NaiveHostPool` twin."""
    for region in cloud.regions.values():
        for zone in region.zones.values():
            for key, pool in list(zone.pools.items()):
                twin = NaiveHostPool(pool.cpu_key, pool.hosts,
                                     pool.slots_per_host, pool.affinity)
                twin.on_release = zone._bucket_released
                twin.bus = pool.bus
                twin.zone_id = pool.zone_id
                zone.pools[key] = twin
            zone._pool_order = None
    return cloud


# ---------------------------------------------------------------------------
# Seeded campaign equivalence
# ---------------------------------------------------------------------------

def _saturation_and_routing_transcript(cloud):
    """Drive the digest campaign: 50 saturating polls, then a routed
    invocation storm with warm reuse, force_new retries, and holds."""
    account = cloud.create_account("equiv", "aws")
    endpoints = [
        cloud.deploy(account, "eu-central-1a", "ep-{}".format(i), 2048,
                     handler=SleepHandler(15.0))
        for i in range(50)
    ]
    lines = []
    for i, endpoint in enumerate(endpoints):
        result, bill = cloud.poll(endpoint, 1000)
        lines.append("poll {} {} {} {} {!r} {!r} {!r} {:.6f} {}".format(
            i, result.served, result.failed, result.unique_fis,
            sorted(result.new_fi_counts.items()),
            sorted(result.reused_fi_counts.items()),
            sorted(result.request_cpu_counts.items()),
            result.timestamp, bill.total))
        cloud.clock.advance(2.5)

    service = cloud.deploy(account, "eu-central-1a", "svc", 2048,
                           handler=SleepHandler(0.4))
    for i in range(400):
        try:
            inv = cloud.invoke(service, force_new=(i % 7 == 3))
        except SaturationError:
            lines.append("invoke {} SATURATED".format(i))
            cloud.clock.advance(30.0)
            continue
        lines.append("invoke {} {} {} {} {:.9f} {:.9f} {}".format(
            i, inv.cpu_key, inv.instance_id, inv.reused, inv.runtime_s,
            inv.latency_s, inv.bill.total))
        if i % 11 == 5:
            cloud.hold(service, inv, 3.0)
        cloud.clock.advance(1.7 if i % 5 else 80.0)
    return lines


def _drift_and_background_transcript(cloud):
    """Multi-hour polls across two zones with drift rebalances and
    background-tenant churn (external count/expiry mutation)."""
    account = cloud.create_account("equiv2", "aws")
    zone_ids = ["us-west-1a", "eu-central-1a"]
    for zone_id in zone_ids:
        cloud.zone(zone_id).attach_background(BackgroundLoad(zone_id,
                                                             seed=13))
    endpoints = {
        zone_id: [cloud.deploy(account, zone_id,
                               "ep-{}-{}".format(zone_id, i), 2048,
                               handler=SleepHandler(10.0))
                  for i in range(12)]
        for zone_id in zone_ids
    }
    lines = []
    for round_i in range(40):
        for zone_id in zone_ids:
            endpoint = endpoints[zone_id][round_i % 12]
            result, bill = cloud.poll(endpoint, 800)
            lines.append("{} {} {} {} {} {!r} {!r} {:.6f} {}".format(
                zone_id, round_i, result.served, result.failed,
                result.unique_fis, sorted(result.new_fi_counts.items()),
                sorted(result.request_cpu_counts.items()),
                result.timestamp, bill.total))
        cloud.clock.advance(7 * MINUTES if round_i % 3 else 31 * MINUTES)
    for zone_id in zone_ids:
        zone = cloud.zone(zone_id)
        lines.append("final {} occ={} free={} cap={}".format(
            zone_id, zone.occupied(), zone.free_slots(), zone.capacity))
    return lines


@pytest.mark.parametrize("seed,campaign", [
    (191, _saturation_and_routing_transcript),
    (77, _drift_and_background_transcript),
], ids=["saturation-routing", "drift-background"])
def test_seeded_campaign_matches_naive_spec(seed, campaign):
    stock = campaign(build_sky(seed=seed, aws_only=True))
    naive = campaign(naivify(build_sky(seed=seed, aws_only=True)))
    assert stock == naive


def test_fi_index_stays_bounded_under_force_new_storm():
    """Regression: force_new retry storms never rebuild the warm lookup
    list, so the per-deployment FI index used to grow without bound.  The
    expiry-heap release callback now prunes it."""
    cloud = build_sky(seed=23, aws_only=True)
    account = cloud.create_account("storm", "aws")
    service = cloud.deploy(account, "eu-central-1a", "storm-svc", 512,
                           handler=SleepHandler(0.2))
    zone = cloud.zone("eu-central-1a")
    created = 0
    peak = 0
    for i in range(300):
        try:
            cloud.invoke(service, force_new=True)
            created += 1
        except SaturationError:
            pass
        # Advance past the keep-alive every few requests so earlier FIs
        # expire while the storm continues.
        cloud.clock.advance(2.0 if i % 10 else 400.0)
        if zone._fi_index:
            peak = max(peak, max(len(v) for v in zone._fi_index.values()))
    assert created >= 250
    # Compaction keeps the index proportional to the live population (tens),
    # not the request history (hundreds).
    assert peak < created / 2


# ---------------------------------------------------------------------------
# Property: cached occupancy == ground-truth sweep, under any interleaving
# ---------------------------------------------------------------------------

DEPLOYMENTS = ("fn-a", "fn-b", "fn-c")


class PoolPairMachine(RuleBasedStateMachine):
    """Drive a stock pool and its naive twin through the same operations.

    After every step both pools must agree on occupancy, free slots, and
    per-deployment warm capacity — and the stock pool's O(1) cached counter
    must equal a from-scratch sweep of its own live buckets.
    """

    @initialize()
    def setup(self):
        self.now = 0.0
        self.stock = HostPool("cpu-x", hosts=4, slots_per_host=16)
        self.naive = NaiveHostPool("cpu-x", hosts=4, slots_per_host=16)
        self.pairs = []  # (stock, naive) twins from both allocate rules
        self.instances = 0

    # -- operations --------------------------------------------------------
    @rule(dep=st.sampled_from(DEPLOYMENTS),
          want=st.integers(min_value=1, max_value=24),
          duration=st.floats(min_value=0.1, max_value=10.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def allocate(self, dep, want, duration, keepalive):
        free = self.stock.free_slots(self.now)
        assert free == self.naive.free_slots(self.now)
        count = min(want, free)
        if count <= 0:
            return
        a = self.stock.allocate(dep, count, self.now, duration, keepalive)
        b = self.naive.allocate(dep, count, self.now, duration, keepalive)
        self.pairs.append((a, b))

    @rule(dep=st.sampled_from(DEPLOYMENTS),
          duration=st.floats(min_value=0.1, max_value=10.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def allocate_instance(self, dep, duration, keepalive):
        # The scalar path's identified FIs join the same warm index.
        if self.stock.free_slots(self.now) < 1:
            return
        self.instances += 1
        instance_id = "fi-{}".format(self.instances)
        a = self.stock.allocate_instance(instance_id, "host-0", dep,
                                         self.now, duration, keepalive)
        b = self.naive.allocate_instance(instance_id, "host-0", dep,
                                         self.now, duration, keepalive)
        self.pairs.append((a, b))

    @rule(dep=st.sampled_from(DEPLOYMENTS),
          want=st.integers(min_value=1, max_value=32),
          duration=st.floats(min_value=0.1, max_value=10.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def claim_warm(self, dep, want, duration, keepalive):
        got_stock = self.stock.claim_warm(dep, want, self.now, duration,
                                          keepalive)
        got_naive = self.naive.claim_warm(dep, want, self.now, duration,
                                          keepalive)
        assert got_stock == got_naive
        # Which buckets were claimed, not only how many: both pools must
        # hold the same live bucket states in the same admit order.
        assert _live_states(self.stock, self.now) == _live_states(
            self.naive, self.now)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          seconds=st.floats(min_value=0.0, max_value=20.0),
          keepalive=st.floats(min_value=1.0, max_value=120.0))
    def hold(self, pick, seconds, keepalive):
        # The zone's retry hold re-busies a bucket through ``HostPool.hold``.
        # A short hold on a bucket that is still busy *lowers* its
        # ``busy_until`` — the one mutation the warm floor must absorb.
        a, b = self.pairs[pick % len(self.pairs)]
        if a._released or a.is_expired(self.now):
            return
        self.stock.hold(a, self.now, seconds, keepalive)
        self.naive.hold(b, self.now, seconds, keepalive)

    @rule(dt=st.floats(min_value=0.0, max_value=200.0))
    def advance(self, dt):
        self.now += dt

    @rule(dt=st.floats(min_value=0.0, max_value=5.0))
    def tick(self, dt):
        # Steps shorter than a busy window: claims land while some
        # buckets are still busy.
        self.now += dt

    @rule(hosts=st.integers(min_value=0, max_value=8))
    def set_hosts(self, hosts):
        applied_stock = self.stock.set_hosts(hosts, self.now)
        applied_naive = self.naive.set_hosts(hosts, self.now)
        assert applied_stock == applied_naive

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          shrink=st.integers(min_value=1, max_value=8))
    def shrink_count(self, pick, shrink):
        # The background process re-targets held buckets by mutating
        # ``count`` directly; the stock pool must absorb the delta through
        # the property hook.
        a, b = self.pairs[pick % len(self.pairs)]
        take = min(shrink, a.count - 1)
        if a._released or take <= 0:
            return
        a.count -= take
        b.count -= take

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          offset=st.floats(min_value=-50.0, max_value=200.0))
    def move_expiry(self, pick, offset):
        # Force-expire (offset <= 0: the background release path) or extend
        # (the keep-alive refresh path) a bucket out from under the pool;
        # the stock pool must lazily or eagerly re-key its heap entry.
        a, b = self.pairs[pick % len(self.pairs)]
        a.expire_at = self.now + offset
        b.expire_at = self.now + offset

    # -- invariants --------------------------------------------------------
    @invariant()
    def occupancy_agrees(self):
        if not hasattr(self, "stock"):
            return
        assert self.stock.occupied(self.now) == self.naive.occupied(self.now)
        assert (self.stock.free_slots(self.now)
                == self.naive.free_slots(self.now))

    @invariant()
    def cached_counter_is_exact(self):
        if not hasattr(self, "stock"):
            return
        self.stock.expire(self.now)
        ground_truth = sum(bucket.count for bucket in self.stock._buckets
                           if not bucket._released)
        assert self.stock._occupied == ground_truth

    @invariant()
    def warm_index_agrees(self):
        if not hasattr(self, "stock"):
            return
        for dep in DEPLOYMENTS:
            assert (self.stock.idle_warm(dep, self.now)
                    == self.naive.idle_warm(dep, self.now))


def _live_states(pool, now):
    """The pool's live buckets as ``(deployment, count, busy_until,
    expire_at)`` tuples, in admit order."""
    pool.expire(now)
    return [(b.deployment, b.count, b.busy_until, b.expire_at)
            for b in pool._buckets if not b._released]


PoolPairMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
TestPoolPairMachine = PoolPairMachine.TestCase
