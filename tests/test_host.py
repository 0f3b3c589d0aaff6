"""Host pools: slot accounting, keep-alive expiry, warm reuse."""

import pytest

from repro.common.errors import ConfigurationError
from repro.cloudsim.host import HostPool


@pytest.fixture
def pool():
    return HostPool("xeon-2.5", hosts=4, slots_per_host=16)


class TestCapacity(object):
    def test_capacity(self, pool):
        assert pool.capacity == 64

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts=-1, slots_per_host=16)
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts=1, slots_per_host=0)
        with pytest.raises(ConfigurationError):
            HostPool("x", hosts=1, slots_per_host=16, affinity=0)

    def test_empty_pool_has_all_slots_free(self, pool):
        assert pool.free_slots(now=0.0) == 64
        assert pool.occupied(now=0.0) == 0


class TestAllocation(object):
    def test_allocate_occupies_slots(self, pool):
        pool.allocate("fn", 10, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.occupied(now=0.0) == 10
        assert pool.free_slots(now=0.0) == 54

    def test_bucket_lifecycle_times(self, pool):
        bucket = pool.allocate("fn", 5, now=10.0, duration=2.0,
                               keepalive=300.0)
        assert bucket.busy_until == 12.0
        assert bucket.expire_at == 312.0

    def test_over_allocation_raises(self, pool):
        with pytest.raises(ConfigurationError):
            pool.allocate("fn", 65, now=0.0, duration=1.0, keepalive=300.0)

    def test_zero_allocation_raises(self, pool):
        with pytest.raises(ConfigurationError):
            pool.allocate("fn", 0, now=0.0, duration=1.0, keepalive=300.0)

    def test_slots_released_after_keepalive(self, pool):
        pool.allocate("fn", 10, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.occupied(now=300.0) == 10
        assert pool.occupied(now=301.1) == 0

    def test_allocate_instance(self, pool):
        fi = pool.allocate_instance("fi-1", "host-1", "fn", now=0.0,
                                    duration=1.0, keepalive=300.0)
        assert fi.count == 1
        assert fi.instance_id == "fi-1"
        assert pool.occupied(now=0.0) == 1


class TestWarmReuse(object):
    def test_idle_warm_counts(self, pool):
        pool.allocate("fn", 8, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.idle_warm("fn", now=0.5) == 0  # still busy
        assert pool.idle_warm("fn", now=2.0) == 8  # warm-idle

    def test_idle_warm_scoped_to_deployment(self, pool):
        pool.allocate("fn-a", 8, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.idle_warm("fn-b", now=2.0) == 0

    def test_claim_warm_full_bucket(self, pool):
        pool.allocate("fn", 8, now=0.0, duration=1.0, keepalive=300.0)
        claimed = pool.claim_warm("fn", 8, now=2.0, duration=1.0,
                                  keepalive=300.0)
        assert claimed == 8
        assert pool.idle_warm("fn", now=2.5) == 0  # busy again

    def test_claim_warm_partial_bucket_splits(self, pool):
        pool.allocate("fn", 8, now=0.0, duration=1.0, keepalive=300.0)
        claimed = pool.claim_warm("fn", 3, now=2.0, duration=1.0,
                                  keepalive=300.0)
        assert claimed == 3
        assert pool.idle_warm("fn", now=2.0) == 5
        assert pool.occupied(now=2.0) == 8  # total unchanged

    def test_claim_refreshes_keepalive(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        pool.claim_warm("fn", 4, now=250.0, duration=1.0, keepalive=300.0)
        # Originally would expire at 301; the claim pushed it to 551.
        assert pool.occupied(now=400.0) == 4

    def test_claim_more_than_available(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 10, now=2.0, duration=1.0,
                               keepalive=300.0) == 4

    def test_claim_expired_returns_zero(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 4, now=302.0, duration=1.0,
                               keepalive=300.0) == 0


class TestBusyUntilFloor(object):
    """A claim below the deployment's busy-until floor visits nothing; the
    floor must follow every ``busy_until`` that can drop below it."""

    def test_all_busy_claims_nothing(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=5.0, keepalive=300.0)
        assert pool.claim_warm("fn", 4, now=1.0, duration=1.0,
                               keepalive=300.0) == 0
        assert pool.claim_warm("fn", 4, now=5.0, duration=1.0,
                               keepalive=300.0) == 4

    def test_hold_shortening_a_busy_bucket_lowers_the_floor(self, pool):
        bucket = pool.allocate("fn", 4, now=0.0, duration=5.0,
                               keepalive=300.0)
        pool.hold(bucket, now=0.0, seconds=0.5, keepalive=300.0)
        assert bucket.busy_until == 0.5
        assert pool.claim_warm("fn", 4, now=1.0, duration=1.0,
                               keepalive=300.0) == 4

    def test_new_instance_lowers_the_floor(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=10.0, keepalive=300.0)
        pool.allocate_instance("fi-1", "host-1", "fn", now=0.0,
                               duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 8, now=2.0, duration=1.0,
                               keepalive=300.0) == 1

    def test_claims_follow_the_earliest_busy_bucket(self, pool):
        pool.allocate("fn", 4, now=0.0, duration=5.0, keepalive=300.0)
        pool.allocate("fn", 4, now=0.0, duration=1.0, keepalive=300.0)
        # Claiming 2 of the idle 4 splits them off, busy until 3.5; the
        # full scan leaves the floor at the parent's 1.0.
        assert pool.claim_warm("fn", 2, now=2.0, duration=1.5,
                               keepalive=300.0) == 2
        assert pool.claim_warm("fn", 8, now=3.0, duration=10.0,
                               keepalive=300.0) == 2
        # Everything is busy now; the earliest is the split-off at 3.5.
        assert pool.claim_warm("fn", 8, now=3.4, duration=1.0,
                               keepalive=300.0) == 0
        assert pool.claim_warm("fn", 8, now=3.5, duration=1.0,
                               keepalive=300.0) == 2

    def test_floor_holds_when_time_goes_backwards(self, pool):
        pool.allocate("fn", 4, now=10.0, duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 4, now=20.0, duration=1.0,
                               keepalive=300.0) == 4
        pool.allocate("fn", 2, now=0.0, duration=1.0, keepalive=300.0)
        assert pool.claim_warm("fn", 8, now=1.5, duration=1.0,
                               keepalive=300.0) == 2


class TestResizing(object):
    def test_set_hosts_grows(self, pool):
        assert pool.set_hosts(8, now=0.0) == 8
        assert pool.capacity == 128

    def test_set_hosts_shrinks(self, pool):
        assert pool.set_hosts(1, now=0.0) == 1
        assert pool.capacity == 16

    def test_shrink_floored_at_occupancy(self, pool):
        pool.allocate("fn", 40, now=0.0, duration=1.0, keepalive=300.0)
        # 40 occupied slots need ceil(40/16) = 3 hosts.
        assert pool.set_hosts(0, now=0.0) == 3

    def test_negative_hosts_rejected(self, pool):
        with pytest.raises(ConfigurationError):
            pool.set_hosts(-1, now=0.0)

    def test_add_hosts(self, pool):
        pool.add_hosts(2)
        assert pool.hosts == 6
        with pytest.raises(ConfigurationError):
            pool.add_hosts(-1)
