"""Host pools: the bare-metal capacity behind an availability zone.

A :class:`HostPool` aggregates every host of one CPU model inside an AZ.
Hosts expose a fixed number of FI *slots* (microVM capacity); slots are
consumed by live FIs (busy or warm-idle) and released when an FI's
keep-alive expires.

``affinity`` models the platform's packing preference.  Pools with high
affinity fill first; low-affinity pools (rare hardware being phased in or
out) only receive placements once the preferred pools are under pressure.
This is what makes "previously unseen hardware" appear late in a sampling
campaign — the anomaly the paper observes in EX-3.

Event-driven capacity accounting
--------------------------------
Capacity reads used to sweep every live bucket (filter expired, re-sum
counts) on *every* call, and the sampling hot path reads capacity a dozen
times per poll.  The pool now maintains:

* ``_occupied`` — a cached slot counter, updated incrementally on
  allocate / release / count mutation, so :meth:`occupied` and
  :meth:`free_slots` are O(1) reads;
* ``_heap`` — a lazily-compacted min-heap of ``(expire_at, seq, bucket)``
  entries.  :meth:`expire` pops only lapsed entries (O(log n) amortized).
  When a bucket's ``expire_at`` moves (warm reuse, forced release), a fresh
  entry is pushed and the stale one is skipped on pop by comparing against
  the bucket's current ``_heap_key``;
* ``_warm`` — a per-deployment index of buckets in admit order, so
  :meth:`claim_warm` / :meth:`idle_warm` only scan the one deployment's
  buckets instead of every tenant's.  Released buckets stay in the lists
  (claims skip them) until :meth:`expire`'s global compaction drops them;
* ``_floor`` — the per-deployment *busy-until floor*: a lower bound on the
  ``busy_until`` of every live bucket in that deployment's ``_warm`` list.
  A claim at ``now < floor`` cannot find an idle bucket and returns
  without visiting one; a claim that does scan recomputes the exact floor
  as it walks.  The floor is lowered wherever a ``busy_until`` can drop
  below it: new buckets (:meth:`allocate`, and :meth:`_admit` for
  :meth:`allocate_instance`, claim split-offs and pinned extras) and
  :meth:`hold`, which may shorten a busy bucket's busy window.  Touching
  an *idle* bucket never breaks the bound: floor <= old ``busy_until``
  <= ``now`` <= new ``busy_until``.  The argument never assumes ``now``
  moves forward, so the bound holds for any sequence of ``now`` values.

All four structures are invisible to callers: the public API and — by
design — every seeded placement outcome are identical to the naive
sweep-everything implementation (see ``tests/test_capacity_equivalence``).
"""

import heapq

from repro.common.errors import ConfigurationError
from repro.cloudsim.instance import FIBucket, FunctionInstance
from repro.obs.hooks import NULL_BUS

_INF = float("inf")


class HostPool(object):
    """All hosts of one CPU model within an AZ."""

    def __init__(self, cpu_key, hosts, slots_per_host, affinity=1.0):
        if hosts < 0 or slots_per_host <= 0:
            raise ConfigurationError(
                "host pool needs hosts >= 0 and slots_per_host > 0")
        if affinity <= 0:
            raise ConfigurationError("affinity must be positive")
        self.cpu_key = cpu_key
        self.hosts = int(hosts)
        self.slots_per_host = int(slots_per_host)
        self.affinity = float(affinity)
        self._buckets = []
        self._heap = []
        self._seq = 0
        self._occupied = 0
        self._dead = 0
        self._warm = {}
        self._floor = {}
        self.on_release = None
        self.bus = NULL_BUS
        self.zone_id = ""

    def attach_bus(self, bus, zone_id):
        """Opt in to slot-churn events (allocate / reuse / expire)."""
        self.bus = bus
        self.zone_id = zone_id
        return bus

    # -- capacity accounting -------------------------------------------------
    @property
    def capacity(self):
        """Total FI slots across the pool's hosts."""
        return self.hosts * self.slots_per_host

    def expire(self, now):
        """Release buckets whose keep-alive has lapsed (heap pop, not sweep)."""
        heap = self._heap
        if not heap or heap[0][0] > now:
            return
        released = 0
        on_release = self.on_release
        while heap and heap[0][0] <= now:
            key, _, bucket = heapq.heappop(heap)
            if bucket._released or key != bucket._heap_key:
                continue  # stale entry; a fresher one is (or was) queued
            if bucket._expire_at > now:
                # Keep-alive was refreshed after this entry was pushed
                # (lazy re-key): queue it again under the current expiry.
                self._schedule_expiry(bucket)
                continue
            bucket._released = True
            count = bucket._count
            self._occupied -= count
            self._dead += 1
            released += count
            if on_release is not None:
                on_release(bucket, now)
        if released and self.bus.enabled:
            self.bus.emit("host.expire", now, zone=self.zone_id,
                          cpu=self.cpu_key, released=released)
        buckets = self._buckets
        if self._dead >= 8 and self._dead * 2 > len(buckets):
            # Global compaction: rebuild the bucket list and the warm index
            # together.  Per-deployment admit order is preserved because
            # ``_warm`` lists are always subsequences of ``_buckets``.
            # Dropping entries only raises their minimum ``busy_until``,
            # so every ``_floor`` stays a valid bound.
            self._buckets = live = [b for b in buckets if not b._released]
            self._dead = 0
            warm = {}
            for b in live:
                lst = warm.get(b.deployment)
                if lst is None:
                    warm[b.deployment] = [b]
                else:
                    lst.append(b)
            self._warm = warm

    def occupied(self, now):
        """Slots held by live (busy or warm) FIs — an O(1) cached read."""
        heap = self._heap
        if heap and heap[0][0] <= now:
            self.expire(now)
        return self._occupied

    def free_slots(self, now):
        return max(0, self.capacity - self.occupied(now))

    def live_buckets(self):
        """The pool's current FI buckets (after the last expiry sweep)."""
        return [b for b in self._buckets if not b._released]

    # -- allocation ------------------------------------------------------------
    def allocate(self, deployment, count, now, duration, keepalive):
        """Create ``count`` new FIs as one bucket; returns the bucket.

        The caller is responsible for checking :meth:`free_slots`; allocating
        beyond capacity raises, because over-packing would silently corrupt
        the saturation behaviour the experiments depend on.
        """
        if count <= 0:
            raise ConfigurationError("allocation count must be positive")
        heap = self._heap
        if heap and heap[0][0] <= now:
            self.expire(now)
        free = self.hosts * self.slots_per_host - self._occupied
        if count > free:
            raise ConfigurationError(
                "pool {} over-allocated: {} requested, {} free".format(
                    self.cpu_key, count, max(0, free)))
        bucket = FIBucket(deployment, self.cpu_key, count,
                          busy_until=now + duration,
                          expire_at=now + duration + keepalive)
        # _admit, inlined: poll-sized campaigns allocate a bucket per pool
        # per poll, so the batch path skips a few layers of calls.
        bucket._pool = self
        self._buckets.append(bucket)
        self._occupied += bucket._count
        key = bucket._expire_at
        bucket._heap_key = key
        self._seq = seq = self._seq + 1
        heapq.heappush(heap, (key, seq, bucket))
        warm = self._warm.get(deployment)
        busy = bucket.busy_until
        if warm is None:
            self._warm[deployment] = [bucket]
            self._floor[deployment] = busy
        else:
            warm.append(bucket)
            if busy < self._floor[deployment]:
                self._floor[deployment] = busy
        if self.bus.enabled:
            self.bus.emit("host.allocate", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=count)
        return bucket

    def allocate_instance(self, instance_id, host_id, deployment, now,
                          duration, keepalive):
        """Create a single identified FI (per-request invocation path)."""
        if self.free_slots(now) < 1:
            raise ConfigurationError(
                "pool {} has no free slot".format(self.cpu_key))
        fi = FunctionInstance(instance_id, host_id, deployment, self.cpu_key,
                              created_at=now,
                              busy_until=now + duration,
                              expire_at=now + duration + keepalive)
        self._admit(fi)
        if self.bus.enabled:
            self.bus.emit("host.allocate", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=1)
        return fi

    def claim_warm(self, deployment, count, now, duration, keepalive):
        """Reuse up to ``count`` warm-idle FIs of ``deployment``.

        Returns the number actually claimed.  Claimed FIs become busy for
        ``duration`` and get a refreshed keep-alive.  Buckets are split when
        only part of them is needed.  Only this deployment's warm index is
        scanned — other tenants' buckets are never visited — and not even
        that while ``now`` is below the deployment's busy-until floor.
        """
        remaining = int(count)
        if remaining <= 0:
            return 0
        warm = self._warm.get(deployment)
        if not warm or now < self._floor[deployment]:
            return 0
        claimed = 0
        floor = _INF
        new_buckets = []
        for bucket in warm:
            if bucket._released:
                continue
            busy = bucket.busy_until
            if remaining > 0 and busy <= now < bucket._expire_at:
                take = min(bucket._count, remaining)
                if take == bucket._count:
                    if bucket._pinned:
                        # Pinned floors never expire: refresh busyness
                        # only, leave the pin horizon untouched.
                        bucket.busy_until = now + duration
                    else:
                        bucket.touch(now, duration, keepalive)
                    busy = bucket.busy_until
                else:
                    bucket.count -= take
                    reused = FIBucket(deployment, self.cpu_key, take,
                                      busy_until=now + duration,
                                      expire_at=now + duration + keepalive)
                    if bucket._pinned:
                        # Splitting a pinned bucket conserves the pinned
                        # count: both halves keep the pin horizon.
                        reused._pinned = True
                        reused._expire_at = bucket._expire_at
                    elif bucket._lease_until is not None:
                        # Split-off instances inherit the parent's lease.
                        reused._lease_until = bucket._lease_until
                        if reused._expire_at > bucket._lease_until:
                            reused._expire_at = bucket._lease_until
                    new_buckets.append(reused)
                remaining -= take
                claimed += take
            if busy < floor:
                floor = busy
        self._floor[deployment] = floor
        for bucket in new_buckets:
            self._admit(bucket)
        if claimed and self.bus.enabled:
            self.bus.emit("host.reuse", now, zone=self.zone_id,
                          cpu=self.cpu_key, count=claimed)
        return claimed

    def hold(self, bucket, now, seconds, keepalive):
        """Keep ``bucket`` busy for ``seconds`` from ``now`` (a retry hold).

        Unlike a warm claim, a hold may *shorten* the busy window of a
        bucket that is still executing, so it lowers the floor.  A pinned
        bucket keeps its pin horizon, as on every other reuse path.
        """
        if bucket._pinned:
            bucket.busy_until = now + seconds
        else:
            bucket.touch(now, seconds, keepalive)
        busy = bucket.busy_until
        if busy < self._floor.get(bucket.deployment, _INF):
            self._floor[bucket.deployment] = busy

    def idle_warm(self, deployment, now):
        """Warm-idle FI count available to ``deployment`` right now."""
        warm = self._warm.get(deployment)
        if not warm:
            return 0
        return sum(b._count for b in warm
                   if not b._released and b.is_idle(now))

    # -- resizing (drift & scaling) ---------------------------------------------
    def set_hosts(self, hosts, now):
        """Resize the pool; never below currently occupied capacity.

        Returns the host count actually applied.  Drift wants to shrink
        pools, but hosts running live FIs cannot be drained instantly, so
        shrinking is floored at the occupied host count.
        """
        hosts = int(hosts)
        if hosts < 0:
            raise ConfigurationError("host count cannot be negative")
        occupied_hosts = -(-self.occupied(now) // self.slots_per_host)
        self.hosts = max(hosts, occupied_hosts)
        return self.hosts

    def add_hosts(self, hosts):
        if hosts < 0:
            raise ConfigurationError("cannot add a negative host count")
        self.hosts += int(hosts)

    # -- internals ---------------------------------------------------------------
    def _admit(self, bucket):
        """Take ownership of ``bucket``: wire hooks, count its slots, index it."""
        bucket._pool = self
        self._buckets.append(bucket)
        self._occupied += bucket._count
        self._schedule_expiry(bucket)
        deployment = bucket.deployment
        busy = bucket.busy_until
        warm = self._warm.get(deployment)
        if warm is None:
            self._warm[deployment] = [bucket]
            self._floor[deployment] = busy
        else:
            warm.append(bucket)
            if busy < self._floor[deployment]:
                self._floor[deployment] = busy

    def _schedule_expiry(self, bucket):
        key = bucket._expire_at
        bucket._heap_key = key
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, bucket))

    def __repr__(self):
        return "HostPool(cpu={}, hosts={}, slots/host={})".format(
            self.cpu_key, self.hosts, self.slots_per_host)
