"""The three workloads: rigs, output checks and measurement loops.

Rigs are built through constructors and public methods only.  The
capacity lift goes through ``HostPool.add_hosts``; no ``ProviderConfig``
attribute is ever assigned (the provider adapter snapshots its quota at
construction, so such an assignment silently measures something else).

Every timed repetition of a workload does the same seeded work, so its
outcome must repeat exactly; a repetition that differs is a failed check.

Wall times are scaled to a reference machine speed.  A fixed
pure-Python loop (:func:`perfbench.stats.calibrate`) is timed before and
after every repetition, and each measured time is multiplied by
``CALIB_REF_S / calibration`` (rates divided by it).  On a shared host
the raw speed of one process drifts by tens of percent within seconds;
the loop runs no program code, so it tracks the machine and cancels that
drift without hiding a change in the program.  Raw figures are printed
beside the scaled ones.
"""

import gc
import os
import pickle
import time

from perfbench import layers
from perfbench.spans import SpanRecorder, layer_table
from perfbench.stats import (
    PeakRss,
    calibrate,
    median,
    quantile,
    tail_quantile,
)

ZONES = ("us-west-1a", "us-west-1b")
#: Slots each host pool is lifted to, so 10k rps never saturates a zone.
POOL_SLOTS = 20000
SERVE_WORKLOAD = "sha1_hash"

#: Campaign grid: 2 zones x 12 seeds of 1,000-request polls.
CAMPAIGN_SEEDS = 12
CAMPAIGN_ENDPOINTS = 30
CAMPAIGN_REQUESTS = 1000
CAMPAIGN_POLLS = 2000
SWEEP_WORKERS = 2

#: Fewest timed repetitions a run makes, however long each one takes.
MIN_REPS = 5
#: Share of a traced campaign run spent on pool sweeps; the rest goes to
#: the in-process traced pass over the same cells.
TRACE_POOL_SHARE = 0.6
#: Seconds :func:`calibrate` takes on the reference machine.
CALIB_REF_S = 0.01


class ServeShape(object):
    """An open-loop serving workload at a fixed offered rate."""

    def __init__(self, rate_rps, sim_s, path):
        self.rate_rps = float(rate_rps)
        self.sim_s = float(sim_s)
        self.path = path  # the dispatch path it must exercise


SERVE_SHAPES = {
    "serve-steady": ServeShape(10000.0, 3.0, "coalesced"),
    "serve-trickle": ServeShape(1500.0, 2.0, "scalar"),
}


class Outcome(object):
    """What one benchmark run measured and found."""

    def __init__(self):
        self.metrics = {}  # name -> (value, unit)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.layers = None  # per-layer metrics, traced runs only
        self.recorder = None

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)


def speed_scale(before_s, after_s):
    """Factor that maps a wall time measured between two calibrations
    onto the reference machine (> 1 when this machine ran fast)."""
    return CALIB_REF_S / ((before_s + after_s) / 2.0)


def scaled(fn):
    """Run ``fn()``; returns ``(result, wall_s, scale)``."""
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - start
    return result, wall_s, speed_scale(before, calibrate())


# -- serving -----------------------------------------------------------------
def build_serve_rig(rate_rps, seed):
    """The ``repro serve`` rig on two AWS zones, capacity-lifted.

    Returns ``(gateway, cloud, account)``.
    """
    from repro import Observability, SkyController, build_sky
    from repro.sampling import CharacterizationBuilder
    from repro.serve import GatewayConfig, PoissonArrivals, ServeGateway
    from repro.workloads import workload_by_name

    cloud = build_sky(seed=seed, aws_only=True)
    account = cloud.create_account("perfbench", "aws")
    for zone_id in ZONES:
        for pool in cloud.zone(zone_id).pools.values():
            pool.add_hosts(-(-POOL_SLOTS // pool.slots_per_host))
    controller = SkyController(cloud, account, list(ZONES),
                               obs=Observability(), polls_per_refresh=2,
                               sampling_count=2)
    # Bootstrap characterizations from catalog capacity, as ``repro
    # serve`` does without --characterize.
    for zone_id in ZONES:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity
                          for key, pool in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        controller.store.put(builder.snapshot())
    gateway = ServeGateway(controller, workload_by_name(SERVE_WORKLOAD),
                           PoissonArrivals(rate_rps, seed=seed),
                           config=GatewayConfig())
    return gateway, cloud, account


def check_serve(path, report, throttled):
    """Problems with a gateway run that should have taken ``path``."""
    problems = []
    if report.offered != report.admitted + report.shed:
        problems.append("offered {} != admitted {} + shed {}".format(
            report.offered, report.admitted, report.shed))
    if report.admitted != report.served + report.failed:
        problems.append("admitted {} != served {} + failed {}".format(
            report.admitted, report.served, report.failed))
    if report.served <= 0:
        problems.append("nothing was served")
    if report.failed or report.shed or throttled:
        problems.append("failed {}, shed {}, throttled {}: the rig must "
                        "not refuse work".format(report.failed, report.shed,
                                                 throttled))
    flushes = report.batches_coalesced + report.batches_scalar
    wanted = (report.batches_coalesced if path == "coalesced"
              else report.batches_scalar)
    if not flushes or wanted < 0.99 * flushes:
        problems.append("{} of {} flushes took the {} path (need 99%)"
                        .format(wanted, flushes, path))
    return problems


def live_buckets_per_pool(cloud):
    """Most live FI buckets held by any one host pool of the rig."""
    return max(len(pool.live_buckets())
               for zone_id in ZONES
               for pool in cloud.zone(zone_id).pools.values())


def run_serve(name, seed, seconds, trace, import_s):
    """Repeat one fixed gateway run for ``seconds``; alternate traced
    repetitions in when ``trace`` is set."""
    shape = SERVE_SHAPES[name]
    out = Outcome()
    recorder = SpanRecorder() if trace else None
    hooks = layers.program_hooks() if trace else None
    setups, raw, rates, traced_rates = [], [], [], []
    first = None
    live_buckets = 0
    deadline = time.perf_counter() + seconds
    rep = 0
    while (time.perf_counter() < deadline or len(rates) < MIN_REPS
           or (trace and len(traced_rates) < MIN_REPS)):
        traced = trace and rep % 2 == 1
        rep += 1
        gc.collect()
        (gateway, cloud, account), build_s, scale = scaled(
            lambda: build_serve_rig(shape.rate_rps, seed))
        if traced:
            recorder.install(hooks)
        try:
            report, run_s, run_scale = scaled(
                lambda: gateway.run_sync(shape.sim_s))
        finally:
            if traced:
                recorder.uninstall()
        setups.append(build_s * scale)
        rate = (report.served + report.failed) / run_s
        (traced_rates if traced else rates).append(rate / run_scale)
        if not traced:
            raw.append(rate)
        out.attempted += report.offered
        out.failed += report.failed + report.shed
        if first is None:
            first = report
            out.problems.extend(check_serve(shape.path, report,
                                            account.throttled_requests))
        elif report.aggregate_key() != first.aggregate_key():
            out.problems.append("repetition {} diverged from the first "
                                "(seeded runs must repeat)".format(rep))
        if traced:
            live_buckets = live_buckets_per_pool(cloud)

    reservoir = len(first.histogram.state()["reservoir"])
    tail_q = tail_quantile(reservoir)
    out.put("ops_per_s", median(rates), "1/s")
    out.put("latency_p50_ms", first.quantile_ms(0.5), "ms")
    out.put("latency_tail_ms", first.quantile_ms(tail_q), "ms")
    out.put("cost_usd_per_1k", first.cost_usd / first.served * 1000.0,
            "usd")
    out.put("setup_s", import_s + median(setups), "s")
    out.put("peak_rss_mb", PeakRss().peak_mb(), "MB")
    out.notes.append(
        "{}: open loop, {:.0f} rps offered for {:g} sim-s per repetition, "
        "{} repetitions of {} requests".format(
            name, shape.rate_rps, shape.sim_s, len(rates) + len(traced_rates),
            first.offered))
    out.notes.append(
        "ops_per_s is serve_rps: requests resolved per wall second, median "
        "of {} untraced repetitions ({:.0f} before speed scaling)".format(
            len(rates), median(raw)))
    out.notes.append(
        "latency is simulated request latency (serve_p50_ms, serve_p99_ms); "
        "tail is p{:g} of {} reservoir samples over {} requests".format(
            tail_q * 100, reservoir, first.histogram.count))
    out.notes.append(
        "flushes: {} coalesced, {} scalar; recharacterizations {}".format(
            first.batches_coalesced, first.batches_scalar,
            first.recharacterizations))
    if trace:
        runs = len(traced_rates)
        table = layer_table(recorder.spans, layers.SPAN_NAMES, runs=runs)
        counters = recorder.counters
        flushes = first.batches_coalesced + first.batches_scalar
        extra = {
            "serve.admission.shed": counters.get(
                "serve.admission.shed", 0) / float(runs),
            "serve.gateway.flushes_coalesced": first.batches_coalesced,
            "serve.gateway.flushes_scalar": first.batches_scalar,
            "serve.gateway.mean_flush_size": (
                (first.served + first.failed) / float(flushes)),
            "cloudsim.host.live_buckets": live_buckets,
            "trace.overhead_pct": _overhead_pct(rates, traced_rates),
        }
        out.layers = _layer_metrics(table, counters, runs, extra)
        out.recorder = recorder
        out.notes.append(
            "traced: {} repetitions at {:.0f} rps against {:.0f} untraced"
            .format(runs, median(traced_rates), median(rates)))
    return out


# -- campaign sweep -----------------------------------------------------------
def campaign_tasks(seed):
    """The reference 24-cell campaign grid at ``CAMPAIGN_POLLS`` polls.

    ``failure_threshold=1.0`` and a long ``inter_poll_gap`` make every
    cell run its full poll count without saturating: fixed work per cell.
    """
    from repro.engine import CampaignTask, CloudSpec, Grid

    grid = Grid([("zone", list(ZONES)),
                 ("seed", list(range(CAMPAIGN_SEEDS)))],
                root_seed=seed, namespace="perfbench-sweep")
    tasks = []
    for cell in grid.cells():
        zone = dict(cell.key)["zone"]
        tasks.append(CampaignTask(
            CloudSpec.for_zones([zone], seed=cell.seed), zone,
            endpoints=CAMPAIGN_ENDPOINTS, n_requests=CAMPAIGN_REQUESTS,
            max_polls=CAMPAIGN_POLLS, failure_threshold=1.0,
            inter_poll_gap=400.0, summary=True))
    return tasks


def check_campaign(results, n_tasks, mode):
    """Problems with one sweep's results."""
    problems = []
    if mode != "pool":
        problems.append("sweep ran as {!r}, not on the process pool"
                        .format(mode))
    if len(results) != n_tasks:
        problems.append("{} results for {} cells".format(len(results),
                                                         n_tasks))
    for index, result in enumerate(results):
        if (result.polls_run != CAMPAIGN_POLLS or result.saturated
                or result.total_requests
                != CAMPAIGN_POLLS * CAMPAIGN_REQUESTS):
            problems.append(
                "cell {} ran {} polls ({} requests, saturated={}); needs "
                "{} unsaturated polls".format(
                    index, result.polls_run, result.total_requests,
                    result.saturated, CAMPAIGN_POLLS))
    return problems


def summary_key(result):
    """A comparable digest of one cell's :class:`CampaignSummary`."""
    return (result.zone_id, result.polls_run, result.total_requests,
            result.total_fis, result.saturated, repr(result.total_cost),
            sorted(result.shares().items()))


class _Sweep(object):
    """One pool sweep over ``tasks``, timed and hooked from the parent."""

    def __init__(self, tasks, recorder=None):
        self.tasks = tasks
        self.recorder = recorder
        self.results = []
        self.failed = 0
        self.cell_ms = []
        self.chunk_at = []
        self.mode = None
        self._start = None

    def _hook(self, chunk_id, records):
        self.chunk_at.append(time.perf_counter() - self._start)
        self.cell_ms.extend(record[3] for record in records)

    def __call__(self):
        from repro.common.errors import SweepError
        from repro.engine import SweepEngine

        engine = SweepEngine(workers=SWEEP_WORKERS, chunk_hook=self._hook)
        self._start = time.perf_counter()
        try:
            if self.recorder is not None:
                with self.recorder.span(layers.ENGINE_SPAN):
                    self.results = engine.run(self.tasks)
            else:
                self.results = engine.run(self.tasks)
        except SweepError as error:
            self.failed = len(error.failures)
        self.mode = engine.last_mode
        return self


def _stop_helpers():
    """Stop the helper processes the pool started and wait for each.

    The forkserver forks the pool workers; the resource tracker watches
    the shared-memory catalog segment.  Both otherwise outlive the run
    until the interpreter exits, and the tracker is then left unreaped.
    The forkserver goes first: it holds the tracker's pipe open.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)  # the stdlib's own hook
        if stop is not None:
            stop()


def run_campaign(seed, seconds, trace, import_s):
    """Repeat the 24-cell sweep on a 2-worker pool for ``seconds``."""
    out = Outcome()
    setups = []
    for _ in range(3):
        tasks, build_s, scale = scaled(lambda: campaign_tasks(seed))
        setups.append(build_s * scale)
    recorder = SpanRecorder() if trace else None
    rss = PeakRss()
    rss.watch()
    raw, rates, traced_rates, cell_ms = [], [], [], []
    first_chunks, chunk_counts = [], []
    reference = None
    deadline = time.perf_counter() + seconds * (
        TRACE_POOL_SHARE if trace else 1.0)
    n = 0
    try:
        while (time.perf_counter() < deadline or len(rates) < MIN_REPS
               or (trace and len(traced_rates) < 2)):
            traced = trace and n % 2 == 1
            n += 1
            gc.collect()
            sweep, wall_s, scale = scaled(
                _Sweep(tasks, recorder if traced else None))
            out.attempted += len(tasks)
            out.failed += sweep.failed
            (traced_rates if traced else rates).append(
                len(tasks) / wall_s / scale)
            if traced:
                first_chunks.append(sweep.chunk_at[0] * scale
                                    if sweep.chunk_at else wall_s * scale)
                chunk_counts.append(len(sweep.chunk_at))
            else:
                raw.append(len(tasks) / wall_s)
                cell_ms.extend(ms * scale for ms in sweep.cell_ms)
            problems = check_campaign(sweep.results, len(tasks), sweep.mode)
            if sweep.failed:
                problems.append("{} cells raised".format(sweep.failed))
            elif reference is None:
                reference = sweep.results
            elif ([summary_key(r) for r in sweep.results]
                  != [summary_key(r) for r in reference]):
                problems.append("results diverged from the first sweep "
                                "(seeded sweeps must repeat)")
            out.problems.extend("sweep {}: {}".format(n, p)
                                for p in problems)
    finally:
        rss.unwatch()
        _stop_helpers()
    if not cell_ms:
        cell_ms = [0.0]
        out.problems.append("no sweep completed a chunk")
    tail_q = tail_quantile(len(cell_ms)) or 0.5
    requests = sum(r.total_requests for r in reference or ())
    cost = sum(float(r.total_cost) for r in reference or ())
    out.put("ops_per_s", median(rates), "1/s")
    out.put("latency_p50_ms", median(cell_ms), "ms")
    out.put("latency_tail_ms", quantile(cell_ms, tail_q), "ms")
    out.put("cost_usd_per_1k",
            cost / requests * 1000.0 if requests else 0.0, "usd")
    out.put("setup_s", import_s + median(setups), "s")
    out.put("peak_rss_mb", rss.peak_mb(), "MB")
    out.notes.append(
        "campaign-sweep: fixed work, {} cells x {} polls of {} requests on "
        "{} pool workers, {} sweeps".format(
            len(tasks), CAMPAIGN_POLLS, CAMPAIGN_REQUESTS, SWEEP_WORKERS,
            len(rates) + len(traced_rates)))
    out.notes.append(
        "ops_per_s is sweep_cells_per_s: cells per wall second with pool "
        "start, median of {} untraced sweeps ({:.3f} before speed "
        "scaling)".format(len(rates), median(raw)))
    out.notes.append(
        "latency is worker wall time per cell; tail is p{:g} of {} cells; "
        "cost is sampling spend per 1k sampled requests".format(
            tail_q * 100, len(cell_ms)))
    if trace:
        out.layers = _campaign_layers(out, recorder, tasks, reference,
                                      rates, traced_rates, first_chunks,
                                      chunk_counts)
        out.recorder = recorder
    return out


def _campaign_layers(out, recorder, tasks, reference, rates, traced_rates,
                     first_chunks, chunk_counts):
    """Engine rows from the traced pool sweeps; every other layer from an
    in-process traced pass over the same cells (pool workers are separate
    processes the recorder cannot see)."""
    engine_spans = list(recorder.spans)
    recorder.install(layers.program_hooks())
    start = time.perf_counter()
    try:
        inproc = [task.run() for task in tasks]
    finally:
        recorder.uninstall()
    inproc_s = time.perf_counter() - start
    if reference is not None and ([summary_key(r) for r in inproc]
                                  != [summary_key(r) for r in reference]):
        out.problems.append("in-process results differ from the pool's")
    names = [n for n in layers.SPAN_NAMES if n != layers.ENGINE_SPAN]
    table = layer_table(recorder.spans[len(engine_spans):], names, runs=1)
    table.update(layer_table(engine_spans, [layers.ENGINE_SPAN],
                             runs=len(traced_rates)))
    extra = {
        "engine.first_chunk_s": median(first_chunks),
        "engine.chunks": median(chunk_counts),
        "engine.result_bytes": len(pickle.dumps(reference or [])),
        "trace.overhead_pct": _overhead_pct(rates, traced_rates),
    }
    out.notes.append(
        "traced: engine layer from {} pool sweeps timed in the parent; "
        "sampling and cloudsim layers from one in-process traced pass over "
        "the same {} cells ({:.2f} s)".format(len(traced_rates), len(tasks),
                                              inproc_s))
    return _layer_metrics(table, recorder.counters, 1, extra)


# -- shared ------------------------------------------------------------------
def _overhead_pct(untraced, traced):
    """Throughput lost to tracing, in percent of the untraced median."""
    return (1.0 - median(traced) / median(untraced)) * 100.0


def _layer_metrics(table, counters, runs, extra):
    """Flatten span rows, counter ratios and ``extra`` into
    ``name -> (value, unit)`` over the full per-layer vocabulary."""
    values = {}
    for name, row in table.items():
        for suffix, _ in layers.SPAN_STATS:
            values["{}.{}".format(name, suffix)] = row[suffix]
    poll_batches = table["cloudsim.cloud.poll_batch"]["calls"] * runs
    claims = table["cloudsim.host.claim_warm"]["calls"] * runs
    fis = counters.get("cloudsim.az.fis", 0)
    values["cloudsim.cloud.poll_batch.requests_per_call"] = (
        counters.get("cloudsim.cloud.poll_batch.requests", 0) / poll_batches
        if poll_batches else 0.0)
    values["cloudsim.az.warm_hit_ratio"] = (
        counters.get("cloudsim.az.warm_fis", 0) / float(fis) if fis else 0.0)
    values["cloudsim.host.claim_warm.fis_per_call"] = (
        counters.get("cloudsim.host.claim_warm.fis", 0) / claims
        if claims else 0.0)
    values["cloudsim.account.admit_batch.throttled"] = counters.get(
        "cloudsim.account.admit_batch.throttled", 0) / float(runs)
    values.update(extra)
    metrics = {}
    for name, unit, _ in layers.per_layer_metrics():
        metrics[name] = (float(values.get(name, 0.0)), unit)
    return metrics


def trace_path(root, workload, seed):
    directory = os.path.join(root, ".perfbench_out")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "{}-seed{}.spans.jsonl".format(workload,
                                                                  seed))
