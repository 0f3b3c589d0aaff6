"""Import contract: heavy optional dependencies load on first use only.

``repro/__init__`` imports the whole package, so whatever a module imports
at load time is paid by every process that touches the library: the CLI,
the serving gateway, each forkserver pool worker and each remote
``sweep-worker``.  ``scipy`` and ``networkx`` are used only by the
characterization estimators, similarity clustering and the graph
workloads, so they are imported at those call sites.  These tests run in
a fresh interpreter (the test session itself has long since imported
scipy) and fail if an eager import creeps back in.
"""

import json
import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEAVY = ("scipy", "networkx")

_PRELUDE = """
import json
import sys

def heavy():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in {heavy!r})

import repro
import repro.cli
import repro.engine
import repro.serve
""".format(heavy=HEAVY)


def _fresh(script, extra_path=None):
    """Run ``script`` after the import prelude in a new interpreter;
    returns the JSON it prints on its last line."""
    paths = [os.path.join(REPO, "src")]
    if extra_path is not None:
        paths.append(str(extra_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    completed = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(script)],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# Every deferred call site, recording the heavy modules loaded after each
# step.  The fresh interpreter runs it to watch the imports happen; this
# process runs it too, as the reference for the results.
_CALLS = """
from repro.common.units import Money
from repro.common.rng import derive_rng
from repro.sampling import CharacterizationBuilder
from repro.sampling.estimators import CharacterizationEstimator
from repro.sampling.similarity import SimilarityMatrix
from repro.workloads.graphs import GraphMST

def _profile(zone, counts):
    builder = CharacterizationBuilder(zone)
    builder.add_poll(counts, cost=Money(0), timestamp=0.0)
    return builder.snapshot()

steps = {"import": heavy()}
estimator = CharacterizationEstimator(_profile("z-1", {"a": 600, "b": 400}))
interval = list(estimator.share_interval("a"))
needed = estimator.observations_for_halfwidth("a", 0.01)
steps["estimator"] = heavy()
matrix = SimilarityMatrix([
    _profile("twin-a", {"x25": 60, "x30": 40}),
    _profile("twin-b", {"x25": 58, "x30": 42}),
    _profile("loner", {"epyc": 90, "x25": 10}),
])
clusters = matrix.clusters(threshold=0.1)
steps["clusters"] = heavy()
mst = GraphMST()
graph = mst.generate_input(derive_rng(5, "graph"), scale=0.2)
steps["graph_input"] = heavy()
summary = mst.summarize(mst.run(graph))
result = {"steps": steps, "interval": interval, "needed": needed,
          "clusters": clusters, "mst": summary}
"""


class TestImportContract(object):
    def test_package_import_loads_no_heavy_dependency(self):
        loaded = _fresh("print(json.dumps(heavy()))")
        assert loaded == []

    def test_each_dependency_loads_at_its_call_site(self):
        out = _fresh(_CALLS + "print(json.dumps(result))")
        steps = out.pop("steps")
        assert steps["import"] == []
        assert "scipy.stats" in steps["estimator"]
        assert not any(name.startswith("networkx")
                       for name in steps["estimator"])
        assert "scipy.cluster.hierarchy" in steps["clusters"]
        assert "scipy.spatial.distance" in steps["clusters"]
        assert not any(name.startswith("networkx")
                       for name in steps["clusters"])
        assert "networkx" in steps["graph_input"]
        # Deferring the import changes no result.
        reference = {"heavy": list}
        exec(_CALLS, reference)
        del reference["result"]["steps"]
        assert out == reference["result"]
        assert out["clusters"] == [["loner"], ["twin-a", "twin-b"]]

    def test_sweep_pool_worker_starts_without_heavy_dependency(
            self, tmp_path):
        # The task class must be importable by name in the worker, so it
        # lives in a module on the fresh interpreter's path.
        (tmp_path / "import_probe.py").write_text(textwrap.dedent("""
            import os
            import sys


            class LoadedModulesTask(object):
                def cell_id(self):
                    return "probe"

                def run(self):
                    heavy = sorted(name for name in sys.modules
                                   if name.split(".")[0] in {heavy!r})
                    return [os.getpid(), "repro.engine" in sys.modules,
                            heavy]
            """.format(heavy=HEAVY)))
        out = _fresh("""
            import os
            from import_probe import LoadedModulesTask
            from repro.engine import SweepEngine

            engine = SweepEngine(workers=2, chunk_size=1)
            results = engine.run([LoadedModulesTask() for _ in range(4)])
            print(json.dumps({"mode": engine.last_mode,
                              "parent": os.getpid(),
                              "results": results}))
            """, extra_path=tmp_path)
        assert out["mode"] == "pool"
        for pid, engine_loaded, heavy in out["results"]:
            assert pid != out["parent"]
            assert engine_loaded
            assert heavy == []
