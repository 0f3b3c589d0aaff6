"""The repository benchmark: serve-steady, serve-trickle, campaign-sweep.

Run one workload with::

    python3 perfbench/run.py --workload serve-steady --seed 1 \
        --seconds 15 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; ``perfbench/README.md`` maps every per-layer metric to the
end-to-end metric it should move.
"""
