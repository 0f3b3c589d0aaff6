"""Simulator-side dynamic-function handlers."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, PayloadError
from repro.cloudsim.handlers import (
    ModeledWorkloadHandler,
    ScaledWorkloadHandler,
)
from repro.dynfunc import (
    CPU_CHECK_SECONDS,
    DynamicFunctionHandler,
    UniversalDynamicFunctionHandler,
    build_payload,
)

SOURCE = "def handler(event, context):\n    return 1\n"


def model(name="wl", base=10.0):
    return ModeledWorkloadHandler(name, base, {"fast": 0.9, "slow": 1.3},
                                  noise_sigma=0.0)


class TestDynamicFunctionHandler(object):
    def test_requires_model(self):
        with pytest.raises(ConfigurationError):
            DynamicFunctionHandler(None)

    def test_duration_without_payload_is_pure_workload(self):
        handler = DynamicFunctionHandler(model())
        assert handler.duration_on("fast", None) == pytest.approx(9.0)

    def test_first_payload_pays_decode_overhead(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE)
        with_payload = handler.duration_on("fast", None, payload)
        assert with_payload > 9.0

    def test_cached_payload_is_nearly_free(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE)
        first = handler.duration_on("fast", None, payload)
        second = handler.duration_on("fast", None, payload)
        assert second < first
        assert second == pytest.approx(9.0, abs=1e-3)

    def test_banned_cpu_returns_check_only(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE).with_banned_cpus(["slow"])
        handler.duration_on("slow", None, payload)  # decode round
        duration = handler.duration_on("slow", None, payload)
        assert duration == pytest.approx(
            CPU_CHECK_SECONDS, abs=1e-3)

    def test_allowed_cpu_runs_workload(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE).with_banned_cpus(["slow"])
        handler.duration_on("fast", None, payload)
        assert handler.duration_on(
            "fast", None, payload) == pytest.approx(9.0, abs=1e-3)

    def test_respond_reports_declined(self):
        handler = DynamicFunctionHandler(model())
        payload = build_payload(SOURCE).with_banned_cpus(["slow"])
        assert handler.respond("slow", payload)["executed"] is False
        assert handler.respond("fast", payload)["executed"] is True

    def test_default_payload_used(self):
        payload = build_payload(SOURCE)
        handler = DynamicFunctionHandler(model(), default_payload=payload)
        first = handler.duration_on("fast", None)
        assert first > 9.0

    def test_mean_duration_skips_overhead(self):
        handler = DynamicFunctionHandler(model())
        assert handler.mean_duration_on("slow") == pytest.approx(13.0)


class TestUniversalHandler(object):
    def test_resolves_model_from_payload(self):
        models = {"alpha": model("alpha", 5.0), "beta": model("beta", 20.0)}
        handler = UniversalDynamicFunctionHandler(
            lambda payload: models[payload.args["workload"]])
        alpha = build_payload(SOURCE, args={"workload": "alpha"})
        beta = build_payload(SOURCE, args={"workload": "beta"})
        handler.duration_on("fast", None, alpha)
        handler.duration_on("fast", None, beta)
        assert handler.duration_on("fast", None,
                                   alpha) == pytest.approx(4.5, abs=1e-3)
        assert handler.duration_on("fast", None,
                                   beta) == pytest.approx(18.0, abs=1e-3)

    def test_requires_payload(self):
        handler = UniversalDynamicFunctionHandler(lambda payload: model())
        with pytest.raises(PayloadError):
            handler.duration_on("fast", None, None)

    def test_requires_resolver(self):
        with pytest.raises(ConfigurationError):
            UniversalDynamicFunctionHandler(None)

    def test_registry_resolver_for_real_workloads(self):
        from repro.workloads import resolve_runtime_model, workload_by_name
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        workload = workload_by_name("zipper")
        payload = workload.payload()
        handler.duration_on("xeon-2.5", None, payload)
        duration = handler.duration_on("xeon-2.5", None, payload)
        assert duration == pytest.approx(workload.base_seconds, rel=0.2)

    def test_registry_resolver_rejects_anonymous_payload(self):
        from repro.workloads import resolve_runtime_model
        handler = UniversalDynamicFunctionHandler(resolve_runtime_model)
        payload = build_payload(SOURCE)  # no workload arg
        with pytest.raises(PayloadError):
            handler.duration_on("xeon-2.5", None, payload)


class TestOccupancyDuration(object):
    """``duration_on(None, ...)``: the occupancy estimate batch polls draw
    before placement picks CPUs."""

    @staticmethod
    def _noisy(default_factor=None):
        return ModeledWorkloadHandler("wl", 10.0, {"fast": 0.9},
                                      noise_sigma=0.05,
                                      default_factor=default_factor)

    def test_cpu_keyed_model_gives_reference_mean_without_raising(
            self, monkeypatch):
        raised = []
        original = ConfigurationError.__init__

        def counting(self, *args):
            raised.append(args)
            original(self, *args)

        monkeypatch.setattr(ConfigurationError, "__init__", counting)
        handler = DynamicFunctionHandler(ScaledWorkloadHandler(
            ScaledWorkloadHandler(self._noisy(), 1.5), 2.0))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert handler.duration_on(None, rng) == 2.0 * 1.5 * 10.0
        assert rng.bit_generator.state == state
        assert raised == []

    def test_model_with_a_default_factor_draws_like_the_model(self):
        noisy = self._noisy(default_factor=1.2)
        handler = DynamicFunctionHandler(noisy)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        assert handler.duration_on(None, ours) == noisy.duration_on(
            None, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.bit_generator.state != np.random.default_rng(
            5).bit_generator.state
