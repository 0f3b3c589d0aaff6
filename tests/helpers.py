"""Shared construction helpers for the test suite."""

from repro.cloudsim.az import AvailabilityZone, ScalingPolicy
from repro.cloudsim.cloud import Cloud
from repro.cloudsim.host import HostPool
from repro.cloudsim.network import GeoPoint
from repro.cloudsim.provider import provider_by_name
from repro.cloudsim.region import Region
from repro.simclock import SimClock


def make_zone(zone_id="test-1a", clock=None, pools=None, seed=0,
              keepalive=300.0, scaling=None):
    """A small standalone zone: 2 CPU pools, 1,024 slots total."""
    clock = clock or SimClock()
    if pools is None:
        pools = [
            HostPool("xeon-2.5", hosts=12, slots_per_host=64),
            HostPool("xeon-3.0", hosts=4, slots_per_host=64),
        ]
    scaling = scaling or ScalingPolicy(max_surge_slots=128)
    return AvailabilityZone(zone_id, pools, clock, keepalive=keepalive,
                            scaling=scaling, rng=seed)


def make_cloud(seed=0, zones=None, region_name="test-1", provider="aws",
               geo=(47.6, -122.3)):
    """A one-region cloud with deterministic (drift-free) zones.

    ``zones`` maps zone_id -> list of HostPool (defaults: two zones with
    contrasting CPU mixes, handy for routing tests).
    """
    cloud = Cloud(seed=seed)
    provider_config = provider_by_name(provider)
    region = Region(region_name, provider_config, GeoPoint(*geo))
    if zones is None:
        zones = {
            region_name + "a": [
                HostPool("xeon-2.5", hosts=10, slots_per_host=64),
                HostPool("xeon-2.9", hosts=6, slots_per_host=64),
            ],
            region_name + "b": [
                HostPool("xeon-2.5", hosts=6, slots_per_host=64),
                HostPool("xeon-3.0", hosts=10, slots_per_host=64),
            ],
        }
    for zone_id, pools in sorted(zones.items()):
        region.add_zone(AvailabilityZone(
            zone_id, pools, cloud.clock,
            keepalive=provider_config.keepalive,
            scaling=ScalingPolicy(max_surge_slots=128), rng=seed))
    cloud.add_region(region)
    return cloud


def drain_zone(zone, deployment="filler", fraction=1.0, duration=1.0):
    """Fill ``fraction`` of a zone's free capacity with busy FIs."""
    target = int(zone.free_slots() * fraction)
    if target <= 0:
        return 0
    result = zone.place_batch(deployment, target, duration=duration,
                              window=0.0)
    return result.unique_fis


#: One field dict per catalogued event, named as its emit site names
#: them, for tests that drive the event→metric bridge without a
#: simulation.  Events whose fields have defaults omit them here so the
#: defaulted path runs too.
SAMPLE_EVENT_FIELDS = {
    "cloud.invoke": dict(zone="z1", cpu="xeon-2.5", reused=False,
                         latency_s=0.25, runtime_s=0.2, cost_usd=2e-6,
                         deployment="d1", category="invocation"),
    "cloud.hold": dict(zone="z1", hold_s=0.15, cost_usd=1e-6),
    "cloud.poll_batch": dict(zone="z1", requested=100, served=98,
                             failed=2, cold_starts=7, timeouts=0,
                             runtime_total_s=12.5, cost_usd=3e-4,
                             deployment="d1", category="poll"),
    "az.placement": dict(zone="z1", requested=10, served=9, failed=1,
                         unique_fis=4, new_fis=2, reused_fis=2,
                         occupancy=0.4),
    "az.saturation": dict(zone="z1", failed=1, failure_rate=0.1,
                          kind="batch"),
    "az.scale": dict(zone="z1", slots_added=64, surge_total=64,
                     occupancy=0.9),
    "az.preempt": dict(zone="z1", reclaimed=3),
    "host.expire": dict(zone="z1", cpu="xeon-2.5", released=2),
    "host.allocate": dict(zone="z1", cpu="xeon-2.5", count=3),
    "host.reuse": dict(zone="z1", cpu="xeon-2.5", count=2),
    "fault.injected": dict(zone="z1", kind="brownout", reason="latency"),
    "sampling.poll": dict(zone="z1", endpoint="e1", poll_index=0,
                          served=95, failed=5, failure_rate=0.05,
                          unique_fis=40, cost_usd=1e-4),
    "sampling.campaign": dict(zone="z1", polls=2, saturated=False,
                              total_fis=80, total_requests=200,
                              cost_usd=2e-4),
    "controller.refresh": dict(zone="z1", polls=2, saturated=False,
                               cost_usd=2e-4, stability="stable"),
    "controller.staleness": dict(stale=1, checked=2, zones="z1",
                                 forced=False),
    "retry.attempt": dict(zone="z1", cpu="xeon-2.5", attempt=0),
    "retry.hold": dict(zone="z1", cpu="xeon-2.5", hold_s=0.15,
                       cost_usd=1e-6),
    "retry.abort": dict(zone="z1", attempt=1, reason="saturation"),
    "breaker.transition": dict(zone="z1", from_state="closed", to="open"),
    "router.failover": dict(zone="z1", reason="no_capacity", hop=0,
                            remaining=1),
    "router.backoff": dict(zone="z1", delay_s=0.5, attempt=0,
                           reason="throttled"),
    "router.hedge": dict(zone="z1", hedge_zone="z2", won=True,
                         primary_latency_s=2.0, hedge_latency_s=1.0),
    "sweep.start": dict(cells=4, workers=2, backend="local",
                        start_method="forkserver"),
    "sweep.cell": dict(index=0, ok=False, wall_ms=12.0, worker_pid=1,
                       chunk_failure=False),
    "sweep.fallback": dict(cells=4, reason="no workers"),
    "sweep.worker_joined": dict(worker="w1", pid=1),
    "sweep.worker_lost": dict(worker="w1", reason="eof"),
    "sweep.worker_left": dict(worker="w1"),
    "sweep.chunk_requeued": dict(chunk=0, cells=2, worker="w1"),
    "sweep.auth_rejected": dict(addr="127.0.0.1:1", reason="bad token"),
    "sweep.resumed": dict(remaining=3),
    "sweep.done": dict(cells=4, workers=2, mode="pool", wall_s=1.0,
                       utilization=0.5),
    "sweep.telemetry": dict(chunk=0, metrics=2, dropped=0),
    "sweep.telemetry_dropped": dict(chunk=0),
    "serve.batch": dict(zone="z1", mode="coalesced", size=36, served=35,
                        failed=1, cold_starts=2, cost_usd=1e-4),
    "serve.shed": dict(count=3, reason="queue_full"),
    "serve.report": dict(offered=100, admitted=97, offered_rps=1000.0,
                         goodput_rps=950.0, shed_rate=0.03,
                         slo_attainment=0.99, p50_ms=2700.0,
                         p95_ms=3000.0, p99_ms=3100.0),
    "serve.recharacterize": dict(zone="z1", reason="errors", ok=True),
    "serve.drain": dict(drained=5, requested=True),
}
