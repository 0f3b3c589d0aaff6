"""The event catalog: completeness, oracle equivalence, HELP, handle cost.

* Every literal event name emitted under ``src/repro`` has exactly one
  catalog entry, and every entry is emitted somewhere.
* Recorded event streams (both serve rigs, a resilient-routing scenario,
  a retry/sampling scenario, a telemetry sweep and a synthetic stream
  covering every branch) fold into the same registry through the
  compiled catalog as through the original if/elif bridge
  (``tests/obs_bridge_oracle.py``), apart from the series of the five
  events that bridge never handled.
* Every family in a serve scrape and a telemetry-sweep scrape carries
  one ``# HELP`` and one ``# TYPE`` line.
* Steady-state emission resolves no series: after one warm-up per label
  set, further events make no ``MetricsRegistry._child`` call.
"""

import ast
import os

import pytest

from repro import Observability, SkyController, build_sky
from repro.core import RetryEngine, RetryPolicy
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.engine import CampaignTask, CloudSpec, SweepEngine
from repro.faults.harness import ChaosExperiment
from repro.obs import MetricsRegistry
from repro.obs.catalog import DIRECT, EVENTS, HELP, compile_bridge
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.hooks import Event
from repro.obs.metrics import HISTOGRAM
from repro.sampling import CharacterizationBuilder
from repro.serve import GatewayConfig, PoissonArrivals, ServeGateway
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import SAMPLE_EVENT_FIELDS, drain_zone, make_cloud
from tests.obs_bridge_oracle import oracle_bridge

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")

#: The events the if/elif bridge let fall through; the catalog gives
#: each a metric or a trace-only reason.
GAP_EVENTS = ("az.preempt", "host.reuse", "cloud.hold",
              "controller.staleness", "sweep.start")

SERVE_ZONES = ("us-west-1a", "us-west-1b")


# -- source scan ---------------------------------------------------------------

def _source_calls(attrs):
    """``(attr, first literal arg, path)`` for every call under
    ``src/repro`` to a function or method named in ``attrs`` whose first
    argument is a string literal."""
    found = []
    for root, _, files in os.walk(SRC):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                first = node.args[0]
                if name in attrs and isinstance(first, ast.Constant) \
                        and isinstance(first.value, str):
                    found.append((name, first.value, path))
    return found


class TestCatalogCompleteness(object):
    def test_every_emitted_event_has_exactly_one_entry(self):
        emitted = {name for _, name, _ in _source_calls({"emit", "_emit"})}
        assert emitted, "the scan found no emit sites"
        assert sorted(emitted - set(EVENTS)) == [], "uncatalogued events"
        assert sorted(set(EVENTS) - emitted) == [], "entries nobody emits"

    def test_gap_events_are_closed(self):
        for name in GAP_EVENTS:
            entry = EVENTS[name]
            assert entry.series or entry.trace_only, name

    def test_entries_are_metrics_xor_trace_only(self):
        for name, entry in EVENTS.items():
            if entry.trace_only is not None:
                assert not entry.series, name
                reason = entry.trace_only
                assert reason.strip() and "\n" not in reason, name
            else:
                assert entry.series, name

    def test_directly_registered_families_have_help(self):
        direct = {family for _, family, _ in _source_calls(
            {"counter", "gauge", "histogram", "_gauge"})}
        assert "serve_latency_s" in direct
        assert sorted(direct - set(HELP)) == []
        assert sorted(set(DIRECT) - direct) == [], "stale DIRECT entries"

    def test_help_text_is_one_clean_line(self):
        for family, text in HELP.items():
            assert text.strip() == text and text, family
            assert "\n" not in text and "\\" not in text, family


# -- recorded streams ----------------------------------------------------------

def _serve_rig(rate_rps, seed=3, event_capacity=100000):
    """The two-zone serve rig, pools lifted so nothing saturates."""
    cloud = build_sky(seed=seed, aws_only=True)
    account = cloud.create_account("catalog", "aws")
    for zone_id in SERVE_ZONES:
        for pool in cloud.zone(zone_id).pools.values():
            pool.add_hosts(-(-20000 // pool.slots_per_host))
    obs = Observability(event_capacity=event_capacity)
    controller = SkyController(cloud, account, list(SERVE_ZONES), obs=obs,
                               polls_per_refresh=2, sampling_count=2)
    for zone_id in SERVE_ZONES:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity for key, pool
                          in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        controller.store.put(builder.snapshot())
    gateway = ServeGateway(controller, workload_by_name("sha1_hash"),
                           PoissonArrivals(rate_rps, seed=seed),
                           config=GatewayConfig())
    return gateway, obs


def _recorded(obs):
    events = obs.recorder.events()
    assert len(events) == sum(obs.recorder.counts().values()), \
        "the recorder evicted events; raise its capacity"
    return events


@pytest.fixture(scope="module")
def serve_steady():
    gateway, obs = _serve_rig(10000.0)
    report = gateway.run_sync(3.0)
    assert report.batches_coalesced > report.batches_scalar
    return obs


@pytest.fixture(scope="module")
def serve_trickle():
    gateway, obs = _serve_rig(1500.0)
    report = gateway.run_sync(4.0)
    assert report.batches_scalar > report.batches_coalesced
    return obs


@pytest.fixture(scope="module")
def routing():
    """Resilient routing under faults (retry, hedge, failover, backoff,
    breaker), the retry method, and a controller refresh."""
    sources = []
    for preset in ("throttle", "chaos", "coldstorm"):
        experiment = ChaosExperiment(zones=SERVE_ZONES, seed=42,
                                     requests=150)
        resilient, naive = experiment.run_preset(preset, start=20.0,
                                                 duration=100.0)
        sources.extend([resilient.obs, naive.obs])

    obs = Observability()
    cloud = make_cloud(seed=101)
    obs.install(cloud)
    account = cloud.create_account("rig", "aws")
    mesh = SkyMesh(cloud)
    for zone in ("test-1a", "test-1b"):
        mesh.register(cloud.deploy(
            account, zone, "dynamic", 2048,
            handler=UniversalDynamicFunctionHandler(resolve_runtime_model)))
    engine = RetryEngine(cloud)
    payload = workload_by_name("sha1_hash").payload()
    policy = RetryPolicy(["xeon-2.5", "xeon-2.9"], max_retries=5)
    for _ in range(5):
        engine.invoke(mesh.endpoint("test-1a", 2048), policy,
                      payload=payload)
    drain_zone(cloud.zone("test-1a"), fraction=0.995, duration=600.0)
    for _ in range(30):
        if engine.invoke(mesh.endpoint("test-1a", 2048), policy,
                         payload=payload).failed:
            break
    controller = SkyController(cloud, account, ["test-1b"], obs=obs,
                               polls_per_refresh=2, poll_requests=150,
                               sampling_count=2)
    controller.refresh_due_zones(force=True)
    sources.append(obs)
    return sources


@pytest.fixture(scope="module")
def telemetry_sweep():
    obs = Observability()
    zones = ("us-west-1a", "us-west-1b")
    tasks = [CampaignTask(CloudSpec.for_zones([zones[i % 2]], seed=i),
                          zones[i % 2], endpoints=3, n_requests=150,
                          max_polls=2) for i in range(4)]
    SweepEngine(workers=1, obs=obs, telemetry=True).run(tasks)
    return obs


def _synthetic_events():
    """Every catalogued event, each conditional branch both ways, the
    defaulted fields both omitted and present, and a second label set."""
    events = []
    for name, fields in sorted(SAMPLE_EVENT_FIELDS.items()):
        events.append(Event(name, 1.0, dict(fields)))
    variants = [
        ("cloud.invoke", dict(reused=True)),
        ("cloud.invoke", dict(zone="z2", cpu="xeon-3.0")),
        ("router.hedge", dict(won=False)),
        ("router.hedge", dict(zone="z2", won=False)),
        ("serve.batch", dict(failed=0)),
        ("serve.batch", dict(mode="scalar", failed=0)),
        ("sweep.cell", dict(ok=True)),
        ("breaker.transition", dict(to="half_open")),
        ("breaker.transition", dict(to="closed")),
        ("breaker.transition", dict(zone="z2", to="unheard-of")),
        ("sweep.telemetry", dict(worker="w2", events=7, spans=2)),
        ("sweep.telemetry_dropped", dict(worker="w2", dropped=4)),
        ("sweep.resumed", dict(chunks=2, cells=6)),
        ("host.reuse", dict(cpu="xeon-3.0", count=5)),
        ("host.allocate", dict(zone="z2")),
    ]
    for name, override in variants:
        fields = dict(SAMPLE_EVENT_FIELDS[name])
        fields.update(override)
        events.append(Event(name, 2.0, fields))
    return events


# -- oracle equivalence --------------------------------------------------------

def _snapshot(registry):
    out = {}
    for name, kind, labels, metric in registry.collect():
        key = (name, kind, tuple(sorted(labels.items())))
        out[key] = metric.state() if kind == HISTOGRAM else metric.value
    return out


def _without(snapshot, families):
    return {key: value for key, value in snapshot.items()
            if key[0] not in families}


def _catalog_families():
    return {series.family for entry in EVENTS.values()
            for series in entry.series}


def _gap_families():
    return {series.family for name in GAP_EVENTS
            for series in EVENTS[name].series}


def _conditional_families():
    return {series.family for entry in EVENTS.values()
            for series in entry.series if series.when is not None}


def _replay_both(events):
    oracle, compiled = MetricsRegistry(), MetricsRegistry()
    bridge = compile_bridge(compiled)
    for event in events:
        oracle_bridge(oracle, event)
        bridge(event)
    return oracle, compiled


def _assert_oracle_equivalent(events):
    oracle, compiled = _replay_both(events)
    expected = _snapshot(oracle)
    got = _snapshot(compiled)
    gap = _gap_families()
    assert not gap & {key[0] for key in expected}
    # Conditional series exist in both registries or in neither.
    for family in _conditional_families():
        assert oracle.labels_of(family) == compiled.labels_of(family), \
            family
    assert _without(got, gap) == expected
    return compiled


STREAMS = ("serve_steady", "serve_trickle", "routing", "telemetry_sweep")


class TestOracleEquivalence(object):
    @pytest.mark.parametrize("stream", STREAMS)
    def test_recorded_stream_matches_the_oracle(self, stream, request):
        sources = request.getfixturevalue(stream)
        if not isinstance(sources, list):
            sources = [sources]
        events = [event for obs in sources for event in _recorded(obs)]
        assert events
        _assert_oracle_equivalent(events)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_live_registry_matches_the_replay(self, stream, request):
        """What the installed bridge built during the run is what a
        fresh replay of the recorded stream builds."""
        sources = request.getfixturevalue(stream)
        if not isinstance(sources, list):
            sources = [sources]
        for obs in sources:
            replayed = MetricsRegistry()
            bridge = compile_bridge(replayed)
            for event in _recorded(obs):
                bridge(event)
            direct_only = set(DIRECT) - _catalog_families()
            live = _without(_snapshot(obs.registry), direct_only)
            assert live == _snapshot(replayed)

    def test_synthetic_stream_matches_the_oracle(self):
        compiled = _assert_oracle_equivalent(_synthetic_events())
        # The branches really ran both ways.
        assert compiled.get("cold_starts_total", zone="z1",
                            cpu="xeon-2.5").value == 1
        assert compiled.get("hedge_wins_total", zone="z2") is None
        assert compiled.get("serve_requests_total",
                            outcome="failed").value == 1
        assert compiled.get("sweep_cell_failures_total").value == 1
        assert compiled.get("breaker_state", zone="z2").value == -1
        assert compiled.get("sweep_shipped_events_total",
                            worker="unknown").value == 0
        assert compiled.get("sweep_shipped_events_total",
                            worker="w2").value == 7

    def test_gap_series_are_fed(self):
        _, compiled = _replay_both(_synthetic_events())
        assert compiled.get("instances_preempted_total",
                            zone="z1").value == 3
        assert compiled.get("slots_reused_total", zone="z1",
                            cpu="xeon-3.0").value == 5
        assert compiled.get("hold_seconds_total", zone="z1").value == 0.15
        assert compiled.get("hold_cost_usd_total", zone="z1").value == 1e-6
        assert compiled.get("sweep_starts_total").value == 1

    def test_serve_rigs_exercise_the_hot_events(self, serve_steady,
                                                serve_trickle):
        steady = serve_steady.recorder.counts()
        trickle = serve_trickle.recorder.counts()
        for name in ("cloud.poll_batch", "az.placement", "host.reuse",
                     "serve.batch"):
            assert steady.get(name), name
        for name in ("cloud.invoke", "host.allocate", "serve.batch"):
            assert trickle.get(name), name
        reused = {event.fields["reused"] for event in
                  serve_trickle.recorder.events("cloud.invoke")}
        assert reused == {True, False}

    def test_routing_scenario_exercises_resilience_events(self, routing):
        seen = set()
        for obs in routing:
            seen.update(obs.recorder.counts())
        for name in ("retry.attempt", "retry.hold", "retry.abort",
                     "router.hedge", "router.failover", "router.backoff",
                     "breaker.transition", "fault.injected", "cloud.hold",
                     "controller.refresh", "sampling.poll"):
            assert name in seen, name


# -- HELP lines ----------------------------------------------------------------

def _assert_help_and_type_once(registry):
    text = prometheus_text(registry)
    lines = text.splitlines()
    families = sorted({name for name, _, _, _ in registry.collect()})
    assert families
    for family in families:
        helps = [line for line in lines
                 if line.startswith("# HELP {} ".format(family))]
        types = [line for line in lines
                 if line.startswith("# TYPE {} ".format(family))]
        assert helps == ["# HELP {} {}".format(family, HELP[family])], \
            family
        assert len(types) == 1, family
        assert lines.index(helps[0]) + 1 == lines.index(types[0])
    # The HELP lines are comments: parsing ignores them.
    stripped = "\n".join(line for line in lines
                         if not line.startswith("# HELP"))
    assert parse_prometheus_text(text) == parse_prometheus_text(stripped)
    return text


class TestHelpLines(object):
    def test_serve_scrape(self, serve_steady, serve_trickle):
        for obs in (serve_steady, serve_trickle):
            text = _assert_help_and_type_once(obs.registry)
            assert "# HELP serve_requests_total " in text
            assert "# HELP serve_latency_s " in text

    def test_telemetry_sweep_scrape(self, telemetry_sweep):
        text = _assert_help_and_type_once(telemetry_sweep.registry)
        assert "# HELP sweep_worker_cells_total " in text
        assert "# HELP sweep_worker_cell_wall_ms " in text

    def test_unknown_family_gets_type_only(self):
        registry = MetricsRegistry()
        registry.counter("custom_total").inc()
        text = prometheus_text(registry)
        assert text == "# TYPE custom_total counter\ncustom_total 1.0\n"


# -- steady-state handle cost --------------------------------------------------

HOT_EVENTS = ("cloud.invoke", "host.allocate", "host.reuse",
              "az.placement", "cloud.poll_batch", "serve.batch")


@pytest.fixture
def child_calls(monkeypatch):
    calls = []
    original = MetricsRegistry._child

    def counting(self, name, kind, factory, labels):
        calls.append(name)
        return original(self, name, kind, factory, labels)

    monkeypatch.setattr(MetricsRegistry, "_child", counting)
    return calls


class TestHandleCost(object):
    def test_hot_events_resolve_no_series_after_warm_up(self, child_calls):
        obs = Observability()
        bus = obs.bus
        label_sets = [dict(), dict(zone="z2"), dict(cpu="xeon-3.0")]
        for name in HOT_EVENTS:
            for override in label_sets:
                fields = dict(SAMPLE_EVENT_FIELDS[name], **override)
                bus.emit(name, 0.0, **fields)
        assert child_calls, "the warm-up resolved nothing"
        del child_calls[:]
        for name in HOT_EVENTS:
            for index in range(1000):
                override = label_sets[index % len(label_sets)]
                fields = dict(SAMPLE_EVENT_FIELDS[name], **override)
                bus.emit(name, float(index), **fields)
        assert child_calls == []
        assert obs.registry.get("invocations_total", zone="z1",
                                cpu="xeon-2.5").value == 1 + 334
