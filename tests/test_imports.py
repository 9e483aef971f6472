"""The import layering: planning and warm replay load no simulator.

The plan/replay side (``repro``, ``repro.cli``, request keys, the
result store and codecs, the figure planners, the workload registry)
must not import numpy or any module that only executing a request
needs (``docs/architecture.md``, "Import layering").  Each check runs
in a fresh interpreter, because this test process has long since
imported everything.

The benchmark's tracer and checkpoints patch a few entry points by
name (``perfbench/tracer.py``, ``perfbench/workloads.py``); the last
tests pin those.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.engine import api as engine_api
from repro.engine.jobs import MixRequest, RunRequest, encode_result
from repro.engine.store import ResultStore
from repro.experiments.configs import CacheDesign
from repro.sim.region import MultiCoreResult, SimulationResult
from repro.sim.stats import SimStats
from repro.workloads.streaming import TraceStream
from repro.workloads.suites import find_workload

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: modules only the simulate side may import at module level
SIMULATE_SIDE = (
    "repro.sim.cache", "repro.sim.cpu", "repro.sim.dram",
    "repro.sim.hierarchy", "repro.sim.simulator", "repro.sim.multicore",
    "repro.core.agent", "repro.core.features", "repro.core.qvstore",
    "repro.core.reward",
    "repro.workloads.generators", "repro.workloads.vectorize",
    "repro.workloads.rng", "repro.workloads.ingest",
    "repro.workloads.trace", "repro.workloads.traceio",
    "repro.engine.pool", "repro.engine.queue", "repro.engine.service",
    "repro.obs.journal", "repro.experiments.dse",
)

#: packages whose ``__init__`` imports every implementation
IMPLEMENTATION_PACKAGES = ("repro.policies", "repro.prefetchers",
                           "repro.ocp")


def _simulate_side(module: str) -> bool:
    return (module == "numpy" or module.startswith("numpy.")
            or module in SIMULATE_SIDE
            or any(module == package or module.startswith(package + ".")
                   for package in IMPLEMENTATION_PACKAGES))


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _perfbench_imports():
    """Every ``repro`` module ``perfbench/workloads.py`` imports."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return sorted({node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.startswith("repro")})


@pytest.mark.parametrize("module", ["repro", "repro.cli"]
                         + _perfbench_imports())
def test_plan_side_import_loads_no_simulate_side_module(module):
    loaded = json.loads(_fresh(
        f"import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        f"print(json.dumps(sorted(sys.modules)))\n"))
    leaked = [name for name in loaded if _simulate_side(name)]
    assert not leaked, f"importing {module} loads {leaked}"


def test_worker_pool_loads_the_execution_modules_before_it_forks():
    loaded = json.loads(_fresh(
        "import json, sys\n"
        "from repro.engine.jobs import EXECUTION_MODULES\n"
        "from repro.engine.pool import SimulationPool\n"
        "before = [m for m in EXECUTION_MODULES if m in sys.modules]\n"
        "with SimulationPool(jobs=1) as pool:\n"
        "    pool.executor\n"
        "    after = [m for m in EXECUTION_MODULES if m in sys.modules]\n"
        "print(json.dumps([before, after, list(EXECUTION_MODULES)]))\n"))
    before, after, wanted = loaded
    assert before == []
    assert after == wanted


def test_perfbench_imports_are_probed():
    # The probe list above is read from the benchmark's own imports.
    assert "repro.engine.api" in _perfbench_imports()
    assert "repro.workloads.streaming" in _perfbench_imports()


@pytest.mark.parametrize("package", [
    "repro", "repro.api", "repro.engine", "repro.obs", "repro.ocp",
    "repro.policies", "repro.prefetchers", "repro.workloads",
])
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
        assert name in listed, f"dir({package}) lacks {name}"


def test_unknown_package_attribute_raises_attribute_error():
    import repro.engine

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.engine.no_such_name  # noqa: B018


def test_base_imports_load_every_implementation():
    """The tracer walks ``__subclasses__()`` of the three bases and relies
    on their packages importing every implementation."""
    names = json.loads(_fresh(
        "import json\n"
        "from repro.ocp.base import OffChipPredictor\n"
        "from repro.policies.base import CoordinationPolicy\n"
        "from repro.prefetchers.base import Prefetcher\n"
        "def walk(base):\n"
        "    out, todo = [], [base]\n"
        "    while todo:\n"
        "        cls = todo.pop()\n"
        "        out.append(cls.__name__)\n"
        "        todo.extend(cls.__subclasses__())\n"
        "    return out\n"
        "print(json.dumps({base.__name__: sorted(walk(base)) for base in\n"
        "    (OffChipPredictor, CoordinationPolicy, Prefetcher)}))\n"))
    assert {"PopetPredictor", "HmpPredictor", "TtpPredictor"} \
        <= set(names["OffChipPredictor"])
    assert {"NaivePolicy", "HpacPolicy", "MabPolicy", "AthenaPolicy",
            "TlpPolicy"} <= set(names["CoordinationPolicy"])
    assert {"IpcpPrefetcher", "BertiPrefetcher", "PythiaPrefetcher",
            "SppPpfPrefetcher", "MlopPrefetcher", "SmsPrefetcher",
            "StreamPrefetcher"} <= set(names["Prefetcher"])


def test_patched_entry_points_live_on_their_own_classes():
    for cls in (RunRequest, MixRequest):
        assert "execute" in cls.__dict__, cls.__name__
    assert "__iter__" in TraceStream.__dict__


def test_engine_decodes_through_the_module_global(tmp_path, monkeypatch):
    request = MixRequest(workloads=(find_workload("ligra.BFS.0"),),
                         trace_length=1000, design=CacheDesign.cd1())
    core = SimulationResult("ligra.BFS.0", SimStats(instructions=10,
                                                    cycles=20.0), 10, 20.0)
    store = ResultStore(tmp_path / "results.sqlite")
    store.put(request.key(), encode_result(MultiCoreResult(cores=[core])))
    decoded = []
    decode = engine_api.decode_result

    def counting(payload):
        decoded.append(payload["kind"])
        return decode(payload)

    monkeypatch.setattr(engine_api, "decode_result", counting)
    with engine_api.Engine(store=store) as engine:
        (result,) = engine.run_many([request])
        assert engine.counters.store_hits == 1
    assert decoded == ["mix"]
    assert result.cores[0].ipc == 0.5
