"""Lockstep seed groups: Athena runs that differ only in the agent seed
execute as one simulation that forks where the agents disagree.

The contract is equivalence: every member's encoded payload equals the
payload of running that member alone (``RunRequest.execute``), over
seeded draws of workloads, lengths, designs and agent configurations
that fork early, fork again inside a fork, or stream their trace.  The
engine side runs a group as one job yet settles, stores, counts and
journals every member key on its own.
"""

import itertools
import json
import random

import pytest

from repro.core.config import AthenaConfig
from repro.engine import Engine, ResultStore, RunRequest, api, jobs
from repro.engine.faults import ExecutionPolicy, FaultPlan
from repro.engine.jobs import (MixRequest, encode_result, execute_group,
                               group_key, lockstep_groups)
from repro.engine.queue import JobQueue
from repro.experiments.configs import CacheDesign
from repro.experiments.runner import ExperimentContext
from repro.obs import read_journal, reset_collector, summarize_journal
from repro.sim.stats import SimStats
from repro.workloads.suites import SCALES, evaluation_workloads, find_workload
from repro.workloads.tracecache import TraceCache, reset_trace_cache

#: the agent-seed offsets ExperimentContext.speedup averages over
SEED_OFFSETS = ExperimentContext._SEED_STREAM[:3]

#: agent configurations: the default, and two that part the agents early
#: (random exploration; random tie-breaks from the first epoch on, with
#: no warm-start and no switch hysteresis)
CONFIGS = {
    "default": {},
    "epsilon": {"epsilon": 0.3},
    "ties": {"switch_margin": 0.0, "explore_rounds": 0},
}


def seed_set(workload, scale="tiny", design="cd1", config="default"):
    """The requests of one Athena seed set, as ExperimentContext plans
    them."""
    base = AthenaConfig(**CONFIGS[config])
    length = SCALES[scale]
    return [
        RunRequest(
            spec=find_workload(workload),
            trace_length=length.trace_length,
            design=getattr(CacheDesign, design)(),
            policy_name="athena",
            athena_config=base.with_updates(seed=base.seed ^ offset),
            epoch_length=length.epoch_length,
            warmup_fraction=length.warmup_fraction,
        )
        for offset in SEED_OFFSETS
    ]


def payload(result):
    return json.loads(json.dumps(encode_result(result)))


def divergences(results):
    """The epoch at which each pair of members first chose differently
    (None for a pair that never did): where the group forked."""
    def first(a, b):
        return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                    None)
    return [first(a.actions, b.actions)
            for a, b in itertools.combinations(results, 2)]


def _draws(count, seed=2026):
    rng = random.Random(seed)
    names = [spec.name for spec in evaluation_workloads()]
    return [(rng.choice(names), rng.choice(("tiny", "small")),
             rng.choice(("cd1", "cd2")), config)
            for config in itertools.islice(
                itertools.cycle(sorted(CONFIGS)), count)]


DRAWS = _draws(6)


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    monkeypatch.delenv("REPRO_STREAM_BLOCK", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
    reset_collector()
    yield
    reset_trace_cache()
    reset_collector()


# ---------------------------------------------------------------------------
# simulation: members equal their solo runs
# ---------------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize(
        "workload,scale,design,config", DRAWS,
        ids=["-".join(draw) for draw in DRAWS])
    def test_members_equal_solo_runs(self, workload, scale, design,
                                     config):
        requests = seed_set(workload, scale, design, config)
        grouped = [payload(result) for result in execute_group(requests)]
        assert grouped == [payload(request.execute())
                           for request in requests]

    def test_draws_fork(self):
        # The draws exercise the fork, not only the shared trajectory.
        forked = [draw for draw in DRAWS if draw[3] != "default"]
        assert {draw[3] for draw in forked} == {"epsilon", "ties"}
        for workload, scale, design, config in forked:
            results = execute_group(seed_set(workload, scale, design,
                                             config))
            assert any(epoch is not None
                       for epoch in divergences(results))

    def test_nested_fork_equals_solo_runs(self):
        # Two agents part from the third, then from each other: the
        # second fork is taken inside a resumed fork.
        requests = seed_set("spec06.omnetpp_like.0", config="epsilon")
        results = execute_group(requests)
        split = divergences(results)
        assert None not in split and len(set(split)) == 2
        assert [payload(result) for result in results] == \
            [payload(request.execute()) for request in requests]

    def test_streamed_group_equals_materialized_solo_runs(
            self, monkeypatch):
        requests = seed_set("spec06.mcf_like.0", config="epsilon")
        monkeypatch.setenv("REPRO_STREAM_BLOCK", "512")
        streamed = [payload(result) for result in execute_group(requests)]
        assert len({json.dumps(p["actions"]) for p in streamed}) > 1
        monkeypatch.delenv("REPRO_STREAM_BLOCK")
        assert streamed == [payload(request.execute())
                            for request in requests]

    def test_agreeing_members_share_one_trajectory(self):
        requests = seed_set("spec06.mcf_like.0")
        results = execute_group(requests)
        assert divergences(results) == [None, None, None]
        assert results[0] is results[1] is results[2]


# ---------------------------------------------------------------------------
# group keys
# ---------------------------------------------------------------------------

class TestGroupKey:
    def test_seed_is_the_only_difference(self):
        requests = seed_set("spec06.mcf_like.0")
        assert len({group_key(request) for request in requests}) == 1
        assert len({request.key() for request in requests}) == 3
        other = seed_set("spec06.mcf_like.0", config="epsilon")
        assert group_key(other[0]) != group_key(requests[0])

    def test_only_athena_runs_have_one(self):
        spec = find_workload("spec06.mcf_like.0")
        assert group_key(RunRequest(spec=spec, trace_length=600,
                                    design=CacheDesign.cd1(),
                                    policy_name="mab")) is None
        assert group_key(MixRequest(workloads=(spec, spec),
                                    trace_length=600,
                                    design=CacheDesign.cd1())) is None

    def test_groups_need_two_distinct_members(self):
        requests = seed_set("spec06.mcf_like.0")
        lone = seed_set("spec06.omnetpp_like.0")[0]
        pairs = [(r.key(), r) for r in requests + [requests[0], lone]]
        leader = requests[0].key()
        assert lockstep_groups(pairs) == {r.key(): leader
                                          for r in requests}


# ---------------------------------------------------------------------------
# engine: one job, one settlement per member
# ---------------------------------------------------------------------------

class TestEngine:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_group_settles_each_member_once(self, tmp_path, jobs):
        requests = seed_set("spec06.mcf_like.0", config="epsilon")
        expected = [payload(request.execute()) for request in requests]
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    jobs=jobs) as engine:
            settled = list(engine.as_completed(requests))
            assert sorted(c.index for c in settled) == [0, 1, 2]
            assert all(c.ok and not c.cached for c in settled)
            assert engine.counters.executed == 3
            assert engine.counters.trace_builds + \
                engine.counters.trace_hits == 1
            for request, want in zip(requests, expected):
                assert engine.store.get(request.key()) == want

    def test_group_payloads_decode_once(self, tmp_path, monkeypatch):
        # every decode of a whole run payload builds its SimStats in the
        # codec, whichever module calls it
        built = []

        def counting(**counters):
            built.append("SimStats")
            return SimStats(**counters)

        monkeypatch.setattr(jobs, "SimStats", counting)
        decoded = []
        decode = api.decode_result

        def counting_decode(payload):
            decoded.append(payload["kind"])
            return decode(payload)

        monkeypatch.setattr(api, "decode_result", counting_decode)
        requests = seed_set("spec06.mcf_like.0")
        with Engine(store=ResultStore(tmp_path / "s.sqlite")) as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 3
        assert decoded == ["run"] * 3
        assert built == ["SimStats"] * 3

    def test_durable_queue_leases_a_group_together(self, tmp_path):
        requests = seed_set("spec06.mcf_like.0")
        pairs = [(r.key(), r) for r in requests]
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.dispatch(pairs, groups=lockstep_groups(pairs))
            leases = queue.lease("w", limit=1)
            assert [lease.key for lease in leases] == [k for k, _ in pairs]
            assert {lease.group for lease in leases} == {pairs[0][0]}
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    queue=tmp_path / "q2.sqlite") as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 3
            assert engine.queue.counts()["done"] == 3

    def test_expired_group_lease_is_reclaimed_whole(self, tmp_path):
        requests = seed_set("spec06.mcf_like.0")
        pairs = [(r.key(), r) for r in requests]
        store = ResultStore(tmp_path / "s.sqlite")
        with JobQueue(tmp_path / "q.sqlite") as queue:
            queue.dispatch(pairs, groups=lockstep_groups(pairs))
            assert len(queue.lease("dead-worker", ttl_s=0.0)) == 3
            report = Engine(store=store, queue=queue,
                            lease_ttl_s=5).worker().run()
            assert (report.reclaimed, report.completed) == (3, 3)
            assert queue.counts()["done"] == 3
        assert all(store.get(key) is not None for key, _ in pairs)
        store.close()

    def test_fault_on_one_member_retries_the_group(self, tmp_path):
        requests = seed_set("spec06.mcf_like.0")
        keys = [request.key() for request in requests]
        plan = next(plan for plan in (FaultPlan.parse(f"raise=0.4,seed={s}")
                                      for s in range(100))
                    if len(plan.victims(keys)) == 1)
        journal = tmp_path / "run.jsonl"
        with Engine(faults=plan, telemetry=journal,
                    resilience=ExecutionPolicy(backoff_s=0.0)) as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 3
            assert engine.counters.retries == 3
            assert engine.counters.failures == 0
        failed = [event["key"] for _, event in read_journal(journal)
                  if event["type"] == "failure"]
        assert sorted(failed) == sorted(keys)

    def test_journal_counts_a_group_once(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        requests = seed_set("spec06.mcf_like.0")
        with Engine(telemetry=journal) as engine:
            engine.run_many(requests)
        summary = summarize_journal(journal)
        assert summary["requests"]["executed"] == 3
        assert summary["phases"]["simulate"]["count"] == 1
        events = [event for _, event in read_journal(journal)
                  if event["type"] == "request"]
        assert [event["group"] for event in events] == \
            [requests[0].key()] * 3
        [leader] = [event for event in events if event["spans"]
                    and event["spans"][0]["name"] != "store_write"]
        simulate = [span for span in leader["spans"]
                    if span["name"] == "simulate"]
        assert summary["phases"]["simulate"]["wall_s"] == \
            pytest.approx(simulate[0]["wall_s"])

    def test_speedup_submits_the_seed_set_as_one_batch(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        with Engine(telemetry=journal) as engine:
            ctx = ExperimentContext(SCALES["tiny"], engine)
            spec = find_workload("spec06.mcf_like.0")
            first = ctx.speedup(spec, CacheDesign.cd1(), "athena")
            assert engine.counters.executed == 4  # baseline + 3 seeds
            assert ctx.speedup(spec, CacheDesign.cd1(), "athena") == first
            assert engine.counters.executed == 4  # replayed from the memo
            assert engine.counters.memo_hits == 4
        # the baseline and one lockstep group
        assert summarize_journal(journal)["phases"]["simulate"]["count"] == 2
