"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-steady --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer metrics, the tracing
overhead, and writes its spans under ``.perfbench_out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The module imports nothing heavy at top level: process-pool workers
import it again as their main module.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD_NAMES = ("serve-steady", "serve-trickle", "campaign-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src``.

    Returns the import's wall seconds, raw and scaled to the reference
    machine speed (see :mod:`perfbench.workloads`).
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit("perfbench: no program source at {}".format(src))
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.stats import calibrate
    from perfbench.workloads import speed_scale

    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, src)
    import repro  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.serve  # noqa: F401
    import_s = time.perf_counter() - start
    return import_s, import_s * speed_scale(before, calibrate())


def _format(value):
    return "{:.6g}".format(value)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    raw_import_s, import_s = import_program()

    from perfbench import workloads

    if args.workload == "campaign-sweep":
        outcome = workloads.run_campaign(args.seed, args.seconds,
                                         bool(args.trace), import_s)
    else:
        outcome = workloads.run_serve(args.workload, args.seed, args.seconds,
                                      bool(args.trace), import_s)

    correct = not outcome.problems
    metrics = outcome.layers if args.trace else outcome.metrics
    outcome.notes.append(
        "wall times are scaled to the reference machine speed; the program "
        "import took {:.3f} s raw".format(raw_import_s))
    for note in outcome.notes:
        print("# " + note)
    for problem in outcome.problems:
        print("CHECK FAILED: " + problem)
    if args.trace:
        for name, (value, unit) in outcome.metrics.items():
            print("# untraced {} = {} {}".format(name, _format(value), unit))
    for name, (value, unit) in metrics.items():
        print("{:<48} {:>14} {}".format(name, _format(value), unit))
    if args.trace:
        path = workloads.trace_path(ROOT, args.workload, args.seed)
        outcome.recorder.write(path)
        print("# {} spans written to {}".format(
            len(outcome.recorder.spans), os.path.relpath(path, ROOT)))
    failed = outcome.attempted if not correct else outcome.failed
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
