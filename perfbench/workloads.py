"""The benchmark's workloads, driven only through the program's public
entry points (``ExperimentContext``, ``Engine``, ``RunRequest``,
``ResultStore``, ``TraceCache``).

Every workload is a closed loop with one client: one caller submits a
batch and waits for it.  A *pass* resolves the workload in-process
(``jobs=1``) through a fresh :class:`~repro.engine.api.Engine` (empty
memo) over the pass's own result store and trace directory: the first
pass over an empty directory is cold, a repeat over the filled store is
warm.  Passes run in the benchmark's own process so that the host-speed
kernel between their segments (``calibration``) runs on the same CPU, in
the same conditions, as the work it scales.

The workload seed reseeds every workload spec: generator seed = registry
seed + ``SEED_STRIDE`` x benchmark seed, so seed 0 is the registry itself
and any other seed is a held-out input.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from calibration import ScaledClock
from repro.engine.api import Engine
from repro.engine.faults import ExecutionError
from repro.engine.jobs import MixRequest, RunRequest, encode_result
from repro.engine.store import ResultStore
from repro.experiments.configs import CacheDesign
from repro.experiments.figures import fig07_cd1, fig15_fourcore
from repro.experiments.runner import ExperimentContext
from repro.workloads.streaming import TraceStream
from repro.workloads.suites import SCALES, WorkloadSpec, find_workload
from repro.workloads.tracecache import (TraceCache, TraceCacheStats,
                                        reset_trace_cache)

SCALE = SCALES["small"]
SEED_STRIDE = 1_000_003
DEFAULT_SEED = 0

STREAM_BLOCK = 4096
STREAM_LENGTH = 400_000
STREAM_WORKLOADS = ("spec06.libquantum_like.0", "spec06.mcf_like.0")

STORE_NAME = "results.sqlite"


def reseed(spec: WorkloadSpec, seed: int) -> WorkloadSpec:
    return replace(spec, seed=spec.seed + SEED_STRIDE * seed)


#: the clock of the scaled pass running now, if any
_clock: Optional[ScaledClock] = None


def install_checkpoints() -> None:
    """Call the running pass's clock at every request and trace-block
    boundary, once per process, so its segments stay short whatever the
    workload: a request of a campaign, a block of a streamed run."""

    def checkpointed(fn):
        def run(*args, **kwargs):
            if _clock is not None:
                _clock.checkpoint()
            return fn(*args, **kwargs)
        return functools.update_wrapper(run, fn)

    for cls in (RunRequest, MixRequest):
        cls.execute = checkpointed(cls.__dict__["execute"])
    stream_iter = TraceStream.__iter__

    def checkpointed_blocks(stream):
        # The checkpoint comes before the next block is taken, when a cold
        # stream's producer thread has filled its queue and is blocked, so
        # it does not share the interpreter with the kernel.
        blocks = stream_iter(stream)
        try:
            while True:
                if _clock is not None:
                    _clock.checkpoint()
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                yield block
        finally:
            close = getattr(blocks, "close", None)
            if close is not None:  # stops a cold stream's producer thread
                close()

    TraceStream.__iter__ = checkpointed_blocks


class SeededContext(ExperimentContext):
    """The figure drivers' context, with every workload spec reseeded."""

    def __init__(self, engine: Engine, seed: int) -> None:
        super().__init__(SCALE, engine)
        self.seed = seed

    def workload_pool(self, count=None):
        return tuple(reseed(spec, self.seed)
                     for spec in super().workload_pool(count))

    def plan_mix(self, mix, *args, **kwargs):
        mix = replace(mix, workloads=tuple(
            reseed(spec, self.seed) for spec in mix.workloads))
        return super().plan_mix(mix, *args, **kwargs)


@dataclass
class Pass:
    """What one pass did, as the engine and the trace cache count it."""

    wall_s: float
    #: wall_s at the reference host speed (see ``calibration``)
    scaled_s: float
    executed: int
    store_hits: int
    retries: int
    failures: int
    trace_builds: int
    table: str
    cells: List[float]
    cache: TraceCacheStats


class Workload:
    """One benchmark workload: ``resolve`` runs it against an engine."""

    name = ""
    #: requests a cold pass must execute
    expected_executed = 0
    #: simulated instructions of one executed request, warmup included
    instructions_per_request = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def resolve(self, engine: Engine) -> Tuple[str, List[float]]:
        """Run the workload; returns its output table and numeric cells."""
        raise NotImplementedError

    def environment(self) -> Dict[str, str]:
        """Environment variables set while a pass runs."""
        return {}

    def run_pass(self, pass_dir: pathlib.Path, scaled: bool = False) -> Pass:
        """One in-process pass over ``pass_dir``'s store and trace
        directory.

        The timed region covers engine start-up, the campaign and the
        engine's shutdown.  With ``scaled`` it is timed by a
        :class:`~calibration.ScaledClock` (see :func:`install_checkpoints`)
        and ``scaled_s`` is set; otherwise ``scaled_s`` is ``wall_s``.
        """
        global _clock
        pass_dir.mkdir(parents=True, exist_ok=True)
        traces = pass_dir / "traces"
        env = dict(self.environment(), REPRO_TRACE_DIR=str(traces))
        os.environ.update(env)
        try:
            cache = reset_trace_cache(TraceCache(disk_dir=traces))
            clock = ScaledClock() if scaled else None
            start = time.perf_counter()
            _clock = clock
            engine = Engine(store=ResultStore(pass_dir / STORE_NAME), jobs=1)
            try:
                table, cells = self.resolve(engine)
            except ExecutionError:
                # The engine counted the failed requests; the checks
                # report them and the missing output.
                table, cells = "", []
            finally:
                engine.close()
                _clock = None
            wall = scaled_wall = time.perf_counter() - start
            if clock is not None:
                clock.stop()
                wall, scaled_wall = clock.raw_s, clock.scaled_s
        finally:
            for key in env:
                os.environ.pop(key, None)
        counters = engine.counters
        return Pass(
            wall_s=wall, scaled_s=scaled_wall, executed=counters.executed,
            store_hits=counters.store_hits, retries=counters.retries,
            failures=counters.failures, trace_builds=counters.trace_builds,
            table=table, cells=cells, cache=cache.stats,
        )

    def reference(self) -> Dict[str, dict]:
        """Payloads an independent execution path produces, by key; an
        empty dict when the workload has no second path to compare."""
        return {}


class FigureCampaign(Workload):
    """Regenerate one figure as its driver in ``figures`` plans it."""

    def __init__(self, seed: int, name: str, figure: Callable,
                 expected_executed: int, cores: int) -> None:
        super().__init__(seed)
        self.name = name
        self.figure = figure
        self.expected_executed = expected_executed
        self.instructions_per_request = cores * SCALE.trace_length

    def resolve(self, engine: Engine) -> Tuple[str, List[float]]:
        result = self.figure(SeededContext(engine, self.seed))
        cells = [value for _, row in result.rows for value in row.values()]
        return result.format_table(), cells


class StreamLong(Workload):
    """Long single-core Athena runs on CD1, streamed in 4096-row blocks
    from a cold per-chunk trace tier, one request at a time."""

    name = "stream_long"
    expected_executed = len(STREAM_WORKLOADS)
    instructions_per_request = STREAM_LENGTH

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.requests = [
            RunRequest(
                spec=reseed(find_workload(name), seed),
                trace_length=STREAM_LENGTH,
                design=CacheDesign.cd1(),
                policy_name="athena",
                epoch_length=SCALE.epoch_length,
                warmup_fraction=SCALE.warmup_fraction,
            )
            for name in STREAM_WORKLOADS
        ]

    def environment(self) -> Dict[str, str]:
        return {"REPRO_STREAM_BLOCK": str(STREAM_BLOCK)}

    def resolve(self, engine: Engine) -> Tuple[str, List[float]]:
        results = engine.run_many(self.requests)
        table = "\n".join(
            f"{result.workload}: ipc={result.ipc!r} cycles={result.cycles!r}"
            for result in results
        )
        return table, [result.ipc for result in results]

    def reference(self) -> Dict[str, dict]:
        """The same requests executed on materialized traces."""
        reset_trace_cache(TraceCache(disk_dir=None))
        return {request.key(): encode_result(request.execute())
                for request in self.requests}


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "fig7_cd1": lambda seed: FigureCampaign(
        seed, "fig7_cd1", fig07_cd1, expected_executed=90, cores=1),
    "fig15_4core": lambda seed: FigureCampaign(
        seed, "fig15_4core",
        lambda ctx: fig15_fourcore(ctx, mixes_per_category=1),
        expected_executed=15, cores=4),
    "stream_long": StreamLong,
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    """Counts operations (requests and output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def requests(self, done: Pass) -> None:
        """Each executed or replayed request is one operation."""
        self.attempted += done.executed + done.store_hits + done.failures
        self.failed += done.failures
        if done.failures:
            self.messages.append(f"{done.failures} requests failed")

    def cold(self, workload: Workload, done: Pass) -> None:
        self.requests(done)
        self.check(done.executed == workload.expected_executed,
                   f"cold pass executed {done.executed} requests, "
                   f"expected {workload.expected_executed}")
        self.check(all(math.isfinite(v) and v > 0 for v in done.cells),
                   "a cell is not finite and positive")

    def warm(self, cold: Pass, done: Pass) -> None:
        self.requests(done)
        self.check(done.table == cold.table,
                   "warm table differs from the cold table")
        self.check(done.executed == 0 and done.trace_builds == 0
                   and done.cache.builds == 0,
                   f"warm pass executed {done.executed} requests and "
                   f"built {done.trace_builds + done.cache.builds} traces")


def store_payloads(pass_dir: pathlib.Path) -> Dict[str, dict]:
    store = ResultStore(pass_dir / STORE_NAME)
    try:
        return {key: store.get(key) for key in store.keys()}
    finally:
        store.close()


def payload_digest(payloads: Dict[str, dict]) -> str:
    """Content digest of a key -> result payload mapping."""
    digest = hashlib.sha256()
    for key in sorted(payloads):
        digest.update(key.encode())
        digest.update(json.dumps(payloads[key], sort_keys=True).encode())
    return digest.hexdigest()
