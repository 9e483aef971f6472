"""Results do not depend on the block size a materialized trace is read in.

Both simulators run one timing loop, ``segment_loop``, which reads a
materialized trace in blocks of
``repro.workloads.streaming.TRACE_BLOCK_ROWS`` rows and builds its
per-block lists (slow rows, branch prefix sums, OCP keys) per block.
Every block size — one row, an odd 997 rows, the whole trace in one
block — must give byte-identical ``encode_result`` payloads for a
single-core run, an Athena lockstep group whose riders fork, a
checkpoint and its resume, and a four-core mix.
"""

import json

import pytest

from repro.core.config import AthenaConfig
from repro.engine.jobs import (MixRequest, RunRequest, encode_result,
                               execute_group)
from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.policies import make_policy
from repro.sim.simulator import Simulator
from repro.workloads import streaming
from repro.workloads.suites import build_trace, find_workload
from repro.workloads.tracecache import TraceCache, reset_trace_cache

LENGTH = 3_000
EPOCH = 150
WARMUP = 0.35


@pytest.fixture(autouse=True)
def _materialized(monkeypatch):
    monkeypatch.delenv("REPRO_STREAM_BLOCK", raising=False)
    reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
    yield
    reset_trace_cache()


def _payload(result):
    return json.loads(json.dumps(encode_result(result)))


def _run(workload="spec06.mcf_like.0", policy="athena", config=None):
    return RunRequest(
        spec=find_workload(workload), trace_length=LENGTH,
        design=CacheDesign.cd1(), policy_name=policy, athena_config=config,
        epoch_length=EPOCH, warmup_fraction=WARMUP)


def single_core():
    return [_payload(_run().execute())]


def forking_group():
    base = AthenaConfig(epsilon=0.3)
    requests = [_run("ligra.BFS.0", config=base.with_updates(
        seed=base.seed ^ offset)) for offset in (0, 0x9E37, 0x85EB)]
    results = execute_group(requests)
    # the riders part: the group forks
    assert len({tuple(r.actions) for r in results}) > 1
    return [_payload(result) for result in results]


def checkpoint_resume():
    trace = build_trace(find_workload("spec06.libquantum_like.0"), LENGTH)
    sim = Simulator(trace, build_hierarchy(CacheDesign.cd1()),
                    policy=make_policy("athena"), epoch_length=EPOCH,
                    warmup_fraction=WARMUP)
    whole = sim.run(checkpoint_at=1_234)
    return [_payload(whole),
            _payload(Simulator.resume(trace, sim.checkpoint))]


def four_core_mix():
    request = MixRequest(
        workloads=tuple(find_workload(name) for name in (
            "spec06.libquantum_like.0", "spec06.mcf_like.0",
            "ligra.BFS.0", "spec06.xalancbmk_like.0")),
        trace_length=LENGTH, design=CacheDesign.cd1(),
        policy_name="athena", epoch_length=EPOCH, warmup_fraction=0.2)
    return [_payload(request.execute())]


@pytest.mark.parametrize("scenario", [single_core, forking_group,
                                      checkpoint_resume, four_core_mix])
def test_payloads_identical_at_every_block_size(scenario, monkeypatch):
    want = scenario()
    for rows in (1, 997, LENGTH):
        monkeypatch.setattr(streaming, "TRACE_BLOCK_ROWS", rows)
        assert scenario() == want, f"{rows}-row blocks"
