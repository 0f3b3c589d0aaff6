"""Request traces recorded once the outcome is known and built on read.

``SmartRouter.route`` records each request's trace as one compact
``Tracer.record`` entry; ``tests/request_trace_oracle.py`` keeps the
eager span-by-span construction (and the tracer of that time) as the
executable spec.  Every scenario here runs the same seeded rig through
both and requires the same traces, ids, retention and completeness.
"""

import io
import json
import os

import pytest

from repro import cli
from repro.common.errors import ConfigurationError, InvocationError
from repro.cloudsim.handlers import CallableHandler
from repro.core import (
    BaselinePolicy,
    CharacterizationStore,
    RetryPolicy,
    RetryRoutingPolicy,
    SmartRouter,
)
from repro.core.policies import RoutingDecision
from repro.core.telemetry import RoutingTelemetry
from repro.dynfunc import UniversalDynamicFunctionHandler
from repro.obs import Observability
from repro.obs import trace as trace_module
from repro.sampling import CharacterizationBuilder
from repro.skymesh import SkyMesh
from repro.workloads import resolve_runtime_model, workload_by_name
from tests.helpers import drain_zone, make_cloud
from tests.request_trace_oracle import (
    OracleTracer,
    oracle_figures,
    oracle_route,
)

ZONE = "test-1a"


def deferred_route(router, decision=None):
    return router.route(decision)


SIDES = {"eager": (oracle_route, OracleTracer),
         "deferred": (deferred_route, trace_module.Tracer)}


class _BrokenPolicy(BaselinePolicy):
    def decide(self, view):
        raise ConfigurationError("no zone to route to")


class _BanEveryCpuPolicy(BaselinePolicy):
    """Refuses both CPUs of the zone: every attempt but the last retries."""

    name = "ban_every_cpu"

    def decide(self, view):
        return RoutingDecision(self.zone_id, RetryPolicy(
            ["xeon-2.5", "xeon-2.9"], max_retries=5))


def make_rig(side, policy=None, seed=77, max_traces=256, handler=None,
             telemetry=None):
    """One traced router on a one-zone cloud; ``side`` picks the tracer."""
    obs = Observability(max_traces=max_traces)
    obs.tracer = SIDES[side][1](max_traces=max_traces)
    cloud = make_cloud(seed=seed)
    obs.install(cloud)
    account = cloud.create_account("traces", "aws")
    mesh = SkyMesh(cloud)
    mesh.register(cloud.deploy(
        account, ZONE, "dynamic", 2048,
        handler=handler or UniversalDynamicFunctionHandler(
            resolve_runtime_model)))
    store = CharacterizationStore()
    builder = CharacterizationBuilder(ZONE)
    builder.add_poll({"xeon-2.5": 10, "xeon-2.9": 6})
    store.put(builder.snapshot())
    router = SmartRouter(cloud, mesh, store, policy or BaselinePolicy(ZONE),
                         workload_by_name("sha1_hash"), [ZONE], obs=obs,
                         telemetry=telemetry)
    return cloud, router, obs


def snapshot(tracer):
    traces = tracer.traces()
    return {"len": len(tracer),
            "ids": [trace.trace_id for trace in traces],
            "complete": [trace.complete for trace in traces],
            "spans": [[span.to_dict() for span in trace.spans]
                      for trace in traces]}


def outcome_of(call):
    """What one routed call returned or raised, comparably."""
    try:
        request = call()
    except InvocationError as error:
        partial = getattr(error, "partial", None)
        return ("refused", error.reason,
                None if partial is None else len(partial.attempts))
    except Exception as error:  # the handler's own error propagates
        return ("raised", type(error).__name__)
    return ("served", request.zone_id, request.cpu_key, request.retries,
            float(request.cost), request.latency_s, request.cold)


# -- scenarios: fn(route, cloud, router, obs) -> outcomes ------------------------

def no_retry_success(route, cloud, router, obs):
    decision = router.decide()
    outcomes = []
    for _ in range(20):
        outcomes.append(outcome_of(lambda: route(router, decision)))
        cloud.clock.advance(0.05)
    return outcomes


def decide_each_request(route, cloud, router, obs):
    outcomes = []
    for _ in range(20):
        outcomes.append(outcome_of(lambda: route(router)))
        cloud.clock.advance(0.05)
    return outcomes


def retry_with_holds(route, cloud, router, obs):
    outcomes = [outcome_of(lambda: route(router)) for _ in range(25)]
    assert any(o[0] == "served" and o[3] > 0 for o in outcomes)
    return outcomes


def retry_failure(route, cloud, router, obs):
    outcomes = [outcome_of(lambda: route(router)) for _ in range(5)]
    drain_zone(cloud.zone(ZONE), fraction=0.995, duration=600.0)
    for _ in range(40):
        outcomes.append(outcome_of(lambda: route(router)))
    assert any(o[0] == "refused" and o[2] for o in outcomes), \
        "no retry loop failed after a completed attempt"
    return outcomes


def direct_saturation(route, cloud, router, obs):
    outcomes = [outcome_of(lambda: route(router))]
    drain_zone(cloud.zone(ZONE), fraction=1.0, duration=600.0)
    outcomes += [outcome_of(lambda: route(router)) for _ in range(3)]
    assert outcomes[-1][:2] == ("refused", "no_capacity")
    return outcomes


def handler_error(route, cloud, router, obs):
    outcomes = [outcome_of(lambda: route(router)) for _ in range(3)]
    assert outcomes[0] == ("raised", "RuntimeError")
    return outcomes


def retry_handler_error(route, cloud, router, obs):
    outcomes = [outcome_of(lambda: route(router)) for _ in range(12)]
    assert ("raised", "RuntimeError") in outcomes
    return outcomes


def decide_raises(route, cloud, router, obs):
    return [outcome_of(lambda: route(router)) for _ in range(2)]


def read_then_extend(route, cloud, router, obs):
    outcomes = [outcome_of(lambda: route(router)) for _ in range(3)]
    trace = obs.tracer.last_trace()
    root = trace.root
    obs.tracer.start_span("note", root, root.end, kind="audit").finish(
        root.end + 1.0)
    dispatch = trace.children(root.span_id)[1]
    obs.tracer.start_span("probe", dispatch, dispatch.start)
    outcomes += [outcome_of(lambda: route(router)) for _ in range(2)]
    return outcomes


def evicting_store(route, cloud, router, obs):
    decision = router.decide()
    outcomes = []
    for n in range(11):
        outcomes.append(outcome_of(
            lambda: route(router, decision if n % 2 else None)))
        cloud.clock.advance(0.05)
    with pytest.raises(ConfigurationError):
        obs.tracer.trace(1)
    return outcomes


def _raising(cpu_key, rng, payload):
    raise RuntimeError("handler bug")


def _raising_after_first_attempt(cpu_key, rng, payload):
    # Only the last-chance attempt carries an empty banned list.
    if not payload.banned_cpus:
        raise RuntimeError("handler bug on the re-issued request")
    return 0.5


#: name -> (scenario, rig options); options are built afresh per rig.
SCENARIOS = {
    "no_retry_success": (no_retry_success, dict),
    "decide_each_request": (decide_each_request, dict),
    "retry_with_holds": (retry_with_holds, lambda: dict(
        policy=RetryRoutingPolicy(ZONE, "focus_fastest"), seed=101)),
    "retry_failure": (retry_failure, lambda: dict(
        policy=_BanEveryCpuPolicy(ZONE), seed=101)),
    "direct_saturation": (direct_saturation, dict),
    "handler_error": (handler_error, lambda: dict(
        handler=CallableHandler(_raising))),
    "retry_handler_error": (retry_handler_error, lambda: dict(
        policy=RetryRoutingPolicy(ZONE, "focus_fastest", max_retries=1),
        handler=CallableHandler(_raising_after_first_attempt), seed=101)),
    "decide_raises": (decide_raises, lambda: dict(
        policy=_BrokenPolicy(ZONE))),
    "read_then_extend": (read_then_extend, dict),
    "evicting_store": (evicting_store, lambda: dict(max_traces=4)),
}


def run_scenario(side, name):
    scenario, options = SCENARIOS[name]
    cloud, router, obs = make_rig(side, **options())
    outcomes = scenario(SIDES[side][0], cloud, router, obs)
    return outcomes, snapshot(obs.tracer)


class TestOracleEquivalence(object):
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_traces_equal_the_eager_construction(self, name):
        eager_outcomes, eager = run_scenario("eager", name)
        outcomes, deferred = run_scenario("deferred", name)
        assert outcomes == eager_outcomes
        assert deferred == eager

    def test_scenarios_cover_every_trace_shape(self):
        names = set()
        complete = set()
        for name in SCENARIOS:
            _, taken = run_scenario("deferred", name)
            names.update(span["name"] for spans in taken["spans"]
                         for span in spans)
            complete.update(taken["complete"])
        assert names == {"request", "decide", "dispatch", "placement",
                         "retry-hold", "billing", "note", "probe"}
        assert complete == {True, False}

    def test_retry_failure_traces_its_partial_attempts(self):
        _, taken = run_scenario("deferred", "retry_failure")
        refused = [spans for spans in taken["spans"]
                   if any(span["tags"].get("error") for span in spans)]
        assert any(span["name"] == "retry-hold"
                   for spans in refused for span in spans)

    def test_handler_error_mid_retry_leaves_earlier_attempts_open(self):
        _, taken = run_scenario("deferred", "retry_handler_error")
        open_traces = [spans for spans, complete
                       in zip(taken["spans"], taken["complete"])
                       if not complete]
        assert open_traces
        for spans in open_traces:
            names = [span["name"] for span in spans]
            assert names[:5] == ["request", "decide", "dispatch",
                                 "placement", "retry-hold"]
            assert spans[0]["end"] is None and spans[2]["end"] is None

    def test_retention_and_eviction_at_max_traces(self):
        _, taken = run_scenario("deferred", "evicting_store")
        assert taken["len"] == 4
        assert taken["ids"] == [8, 9, 10, 11]

    @pytest.mark.parametrize("order", ["newest_first", "by_id", "last"])
    def test_read_order_does_not_change_a_trace(self, order):
        _, expected = run_scenario("eager", "retry_with_holds")
        cloud, router, obs = make_rig(
            "deferred", **SCENARIOS["retry_with_holds"][1]())
        retry_with_holds(deferred_route, cloud, router, obs)
        tracer = obs.tracer
        if order == "newest_first":
            for trace_id in reversed(expected["ids"]):
                tracer.trace(trace_id)
        elif order == "by_id":
            tracer.trace(expected["ids"][len(expected["ids"]) // 2])
        else:
            assert tracer.last_trace().trace_id == expected["ids"][-1]
        assert snapshot(tracer) == expected
        assert tracer.trace(expected["ids"][0]) is tracer.traces()[0]


# -- zero construction until read ------------------------------------------------

@pytest.fixture
def constructions(monkeypatch):
    counts = {"Span": 0, "Trace": 0}
    for cls in (trace_module.Span, trace_module.Trace):
        original = cls.__init__

        def counting(self, *args, _original=original,
                     _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestBuildOnRead(object):
    def test_routing_builds_no_span_until_a_trace_is_read(
            self, constructions):
        cloud, router, obs = make_rig("deferred", max_traces=256)
        decision = router.decide()
        for n in range(1000):
            router.route(decision if n % 2 else None)
            cloud.clock.advance(0.01)
        assert constructions == {"Span": 0, "Trace": 0}
        assert len(obs.tracer) == 256
        obs.tracer.traces()
        assert constructions["Trace"] == 256
        assert constructions["Span"] == 256 * 3 + 128

    def test_one_read_builds_one_trace(self, constructions):
        cloud, router, obs = make_rig("deferred")
        for _ in range(10):
            router.route()
        obs.tracer.last_trace()
        assert constructions == {"Span": 4, "Trace": 1}


# -- figures and downstream artifacts --------------------------------------------

class TestDownstreamEquality(object):
    @pytest.mark.parametrize("name", ["no_retry_success",
                                      "retry_with_holds"])
    def test_routed_request_figures_and_telemetry_rows(self, name):
        scenario, options = SCENARIOS[name]
        rows = {}
        for side in SIDES:
            telemetry = RoutingTelemetry()
            cloud, router, obs = make_rig(side, telemetry=telemetry,
                                          **options())
            requests = []
            route = SIDES[side][0]

            def recording(router, decision=None):
                request = route(router, decision)
                requests.append(request)
                return request

            scenario(recording, cloud, router, obs)
            for request in requests:
                retries, cost, latency, billed = oracle_figures(
                    request.outcome)
                assert (request.retries, request.latency_s,
                        request.billed_runtime_s) == (retries, latency,
                                                      billed)
                assert request.cost.usd == cost.usd
                final = getattr(request.outcome, "final", request.outcome)
                assert request.cold is (not final.reused)
            rows[side] = [record.to_row() for record in telemetry.records()]
        assert rows["deferred"] == rows["eager"]
        assert len(rows["eager"]) > 0

    def test_manifest_trace_json_equals_eager(self, tmp_path, monkeypatch):
        def serve(record_dir):
            out = io.StringIO()
            code = cli.main(["--seed", "11", "serve", "--rps", "50",
                             "--duration", "2", "--zones",
                             "us-west-1a,us-west-1b", "--record",
                             str(record_dir)], out=out)
            assert code == 0
            assert "batches: 0 coalesced" in out.getvalue()
            with open(os.path.join(str(record_dir), "trace.json")) as f:
                return f.read()

        deferred = serve(tmp_path / "deferred")
        with monkeypatch.context() as patch:
            patch.setattr("repro.obs.Tracer", OracleTracer)
            patch.setattr(SmartRouter, "route", oracle_route)
            eager = serve(tmp_path / "eager")
        assert deferred == eager
        traces = json.loads(deferred)["traces"]
        assert len(traces) == 101
        assert all(spans[0]["name"] == "request" for spans in traces)

    def test_telemetry_sweep_ships_the_same_spans(self, tmp_path,
                                                  monkeypatch):
        def sweep(record_dir):
            out = io.StringIO()
            code = cli.main(["--seed", "5", "sweep", "campaign", "--zones",
                             "us-west-1a,us-west-1b", "--seeds", "0,1",
                             "--polls", "2", "--endpoints", "3",
                             "--requests", "150", "--workers", "1",
                             "--telemetry", "--record", str(record_dir)],
                            out=out)
            assert code == 0
            with open(os.path.join(str(record_dir), "trace.json")) as f:
                traces = json.load(f)["traces"]
            for spans in traces:
                for span in spans:
                    # Cell and chunk spans run on the wall clock.
                    span["start"] = span["end"] = None
                    span["tags"].pop("wall_ms", None)
            return traces

        deferred = sweep(tmp_path / "deferred")
        with monkeypatch.context() as patch:
            patch.setattr("repro.obs.Tracer", OracleTracer)
            patch.setattr("repro.obs.ship.Tracer", OracleTracer)
            eager = sweep(tmp_path / "eager")
        assert deferred == eager
        names = [span["name"] for spans in deferred for span in spans]
        assert names.count("cell") == 4 and names[0] == "sweep"
