"""The workload checks reject runs that did not do what they are named
after."""

import json
import os

import pytest

pytest.importorskip("numpy")

from perfbench import layers  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SERVE_SHAPES,
    build_serve_rig,
    check_serve,
)


@pytest.fixture(scope="module")
def steady_report():
    gateway, _, account = build_serve_rig(
        SERVE_SHAPES["serve-steady"].rate_rps, seed=3)
    report = gateway.run_sync(1.0)
    return report, account.throttled_requests


def test_clean_steady_run_passes(steady_report):
    report, throttled = steady_report
    assert check_serve("coalesced", report, throttled) == []


def test_trickle_run_takes_the_scalar_path():
    gateway, _, account = build_serve_rig(
        SERVE_SHAPES["serve-trickle"].rate_rps, seed=3)
    report = gateway.run_sync(SERVE_SHAPES["serve-trickle"].sim_s)
    assert check_serve("scalar", report, account.throttled_requests) == []
    assert check_serve("coalesced", report, 0) != []


@pytest.mark.parametrize("field, delta, words", [
    ("offered", 1, "offered"),
    ("served", -1, "admitted"),
    ("shed_queue", 1, "shed"),
    ("failed", 1, "failed"),
    ("batches_scalar", 1000, "flushes"),
])
def test_corrupted_report_is_rejected(steady_report, field, delta, words):
    report, throttled = steady_report
    saved = getattr(report, field)
    setattr(report, field, saved + delta)
    try:
        problems = check_serve("coalesced", report, throttled)
    finally:
        setattr(report, field, saved)
    assert problems and any(words in p for p in problems)


def test_throttling_is_rejected(steady_report):
    report, _ = steady_report
    assert check_serve("coalesced", report, 5)


def test_benchmark_json_lists_every_per_layer_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.per_layer_metrics()
