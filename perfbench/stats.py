"""Summary statistics and process-tree memory for the benchmark.

Quantiles use linear interpolation (numpy's default, and the convention
of ``repro.obs.metrics.quantile``), so benchmark and program percentiles
agree on the same samples.
"""

import math
import os
import threading
import time

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (0.9, 0.99, 0.999, 0.9999)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(q, n):
    """How many of ``n`` samples lie beyond the ``q`` quantile."""
    return int(math.floor(n * (1.0 - q) + 1e-9))


def tail_quantile(n, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    Returns None when even the lowest rung is unsupported by ``n``.
    """
    best = None
    for q in ladder:
        if samples_beyond(q, n) >= min_beyond:
            best = q
    return best


def quantile(values, q):
    """Linear-interpolation quantile of an unsorted sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def median(values):
    return quantile(values, 0.5)


def _children(pid):
    """Direct child pids of ``pid`` (all threads), via procfs."""
    found = []
    try:
        tids = os.listdir("/proc/{}/task".format(pid))
    except OSError:
        return found
    for tid in tids:
        try:
            with open("/proc/{}/task/{}/children".format(pid, tid)) as fh:
                found.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return found


def _status_kb(pid, field):
    """A ``/proc/<pid>/status`` size field in KiB, or 0 if ``pid`` is gone."""
    try:
        with open("/proc/{}/status".format(pid)) as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class PeakRss(object):
    """Peak resident memory of this process plus its descendants.

    While :meth:`watch` is active, a background thread sums the resident
    sets of this process and every descendant (pool workers and the
    forkserver) every ``interval_s`` and keeps the largest sum.  The
    result is at least this process's own peak (``VmHWM``).
    """

    def __init__(self, interval_s=0.1):
        self.interval_s = float(interval_s)
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = None

    def _poll(self):
        pid = os.getpid()
        total = _status_kb(pid, "VmRSS:")
        pending = _children(pid)
        while pending:
            child = pending.pop()
            total += _status_kb(child, "VmRSS:")
            pending.extend(_children(child))
        self._peak_kb = max(self._peak_kb, total)

    def _loop(self):
        while not self._stop.wait(self.interval_s):
            self._poll()

    def watch(self):
        """Start sampling the process tree in a background thread."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()

    def unwatch(self):
        if self._thread is not None:
            self._poll()
            self._stop.set()
            self._thread.join()
            self._thread = None

    def peak_mb(self):
        own = _status_kb(os.getpid(), "VmHWM:")
        return max(own, self._peak_kb) / 1024.0


def calibrate(rounds=7, n=60000):
    """Seconds for a fixed pure-Python loop: the machine's current speed.

    The mean over ``rounds`` short loops, so it samples the machine over
    a few tens of milliseconds.  It runs no program code, so a change to
    the program cannot move it.
    """
    total = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(n):
            acc += i * i
            table[i & 1023] = acc
        total += time.perf_counter() - start
    return total / rounds
