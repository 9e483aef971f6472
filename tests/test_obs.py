"""Tests for the observability subsystem: spans, metrics, journals,
engine telemetry, and the bench history trend."""

import json
import subprocess

import pytest

from repro.bench import (
    append_history,
    format_trend,
    history_entry,
    load_history,
)
from repro.engine import Engine, ResultStore, RunRequest
from repro.experiments.configs import CacheDesign
from repro.obs import (
    MetricsRegistry,
    RunJournal,
    SpanCollector,
    aggregate_spans,
    collector,
    prometheus_text,
    provenance,
    read_journal,
    reset_collector,
    set_enabled,
    summarize_journal,
    validate_event,
    validate_journal,
    worker_id,
)
from repro.workloads.suites import find_workload
from repro.workloads.tracecache import reset_trace_cache


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Every test starts with telemetry off and an empty collector."""
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reset_collector()
    yield
    reset_collector()


def _request(policy="naive", workload="ligra.BFS.0", **overrides):
    defaults = dict(
        spec=find_workload(workload),
        trace_length=2000,
        design=CacheDesign.cd1(),
        policy_name=policy,
        epoch_length=100,
        warmup_fraction=0.35,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_disabled_records_nothing(self):
        col = SpanCollector(enabled=False)
        with col.span("simulate") as sp:
            assert sp is None
        assert len(col) == 0

    def test_nesting_produces_paths(self):
        col = SpanCollector(enabled=True)
        with col.span("outer"):
            with col.span("inner"):
                pass
        paths = {s["name"]: s["path"] for s in col.spans}
        assert paths == {"outer": "outer", "inner": "outer/inner"}

    def test_span_times_and_attrs(self):
        col = SpanCollector(enabled=True)
        with col.span("simulate", workload="w") as sp:
            pass
        assert sp["workload"] == "w"
        assert sp["wall_s"] >= 0.0
        assert sp["cpu_s"] >= 0.0
        assert sp["worker"] == worker_id()

    def test_span_recorded_when_body_raises(self):
        col = SpanCollector(enabled=True)
        with pytest.raises(RuntimeError):
            with col.span("boom"):
                raise RuntimeError("x")
        assert [s["name"] for s in col.spans] == ["boom"]

    def test_take_since_removes_only_the_tail(self):
        col = SpanCollector(enabled=True)
        with col.span("before"):
            pass
        mark = len(col)
        with col.span("after"):
            pass
        taken = col.take_since(mark)
        assert [s["name"] for s in taken] == ["after"]
        assert [s["name"] for s in col.spans] == ["before"]

    def test_merge_and_drain(self):
        col = SpanCollector(enabled=True)
        col.merge([{"name": "simulate", "wall_s": 0.1, "cpu_s": 0.1}])
        assert len(col) == 1
        assert len(col.drain()) == 1
        assert len(col) == 0

    def test_set_enabled_controls_module_collector(self):
        assert len(collector()) == 0
        set_enabled(True)
        from repro.obs import span

        with span("x"):
            pass
        set_enabled(False)
        with span("y"):
            pass
        assert [s["name"] for s in collector().spans] == ["x"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("hits")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_is_idempotent_and_typed(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_to_dict_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        assert registry.to_dict() == {"counters": {"c": 1.0},
                                      "gauges": {"g": 2.0}}

    def test_prometheus_export(self):
        registry = MetricsRegistry()
        registry.counter("engine_executed").inc(3)
        registry.gauge("queue_depth").set(1.5)
        text = prometheus_text(registry.to_dict())
        assert "# TYPE engine_executed counter" in text
        assert "engine_executed 3" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 1.5" in text

    def test_prometheus_text_replays_a_snapshot(self):
        # one TYPE line and one sample per metric, counters and gauges
        # interleaved in name order, integral values without ".0"
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("b").set(0.25)
        registry.counter("a")
        snap = json.loads(json.dumps(registry.to_dict()))
        assert prometheus_text(snap) == (
            "# TYPE a counter\na 0\n"
            "# TYPE b gauge\nb 0.25\n"
            "# TYPE c counter\nc 2\n"
        )
        assert prometheus_text({}) == "\n"


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------

class TestJournal:
    def test_write_read_validate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.event("start", pid=1, jobs=2)
            journal.event("request", key="k", outcome="executed",
                          spans=[{"name": "simulate", "wall_s": 0.1,
                                  "cpu_s": 0.1}])
            journal.event("summary", counters={"executed": 1})
        events = [e for _, e in read_journal(path)]
        assert [e["type"] for e in events] == ["start", "request",
                                               "summary"]
        assert events[0]["schema"] == 1
        assert validate_journal(path) == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.event("start", pid=1)
        with open(path, "a") as fh:
            fh.write('{"type": "requ')  # crash mid-write
        assert len([e for _, e in read_journal(path)]) == 1

    def test_validate_flags_bad_events(self):
        assert validate_event({"ts": 1.0, "type": "nope"})
        assert validate_event({"ts": 1.0, "type": "request", "key": "k",
                               "outcome": "wat", "spans": []})
        assert "missing/non-numeric ts" in validate_event(
            {"type": "start", "pid": 1, "schema": 1})
        assert validate_event({"ts": 1.0, "type": "start", "pid": 1,
                               "schema": 1}) == []

    def test_summarize_and_aggregate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.event("start", pid=1)
            journal.event("span", name="plan", wall_s=0.5, cpu_s=0.4)
            journal.event("request", key="a", outcome="executed",
                          worker="pid9",
                          spans=[{"name": "simulate", "wall_s": 2.0,
                                  "cpu_s": 1.0}])
            journal.event("request", key="b", outcome="store", worker=None,
                          spans=[])
            journal.event("summary", counters={"executed": 1})
        summary = summarize_journal(path)
        assert summary["requests"] == {"memo": 0, "store": 1,
                                       "executed": 1, "total": 2}
        assert summary["workers"] == {"pid9": 1}
        assert summary["phases"]["simulate"]["wall_s"] == pytest.approx(2.0)
        assert summary["phases"]["plan"]["count"] == 1
        assert summary["counters"] == {"executed": 1}
        spans = aggregate_spans(path)
        assert spans[0]["name"] == "simulate"  # sorted by wall desc

    def test_summarize_journals_merges_workers(self, tmp_path):
        from repro.obs.journal import summarize_journals

        def write(name, events):
            path = tmp_path / name
            path.write_text("".join(json.dumps(e) + "\n" for e in events))
            return path

        first = write("a.jsonl", [
            {"ts": 10.0, "type": "start", "pid": 1},
            {"ts": 11.0, "type": "request", "key": "k1",
             "outcome": "executed", "worker": "w1",
             "spans": [{"name": "simulate", "wall_s": 2.0, "cpu_s": 1.5}]},
            {"ts": 12.0, "type": "request", "key": "k2", "outcome": "store",
             "worker": None, "spans": []},
            {"ts": 12.5, "type": "rebuild", "rebuilds": 1, "degraded": False},
            {"ts": 13.0, "type": "summary",
             "counters": {"executed": 1, "store_hits": 1, "mode": "inline"}},
        ])
        second = write("b.jsonl", [
            {"ts": 9.0, "type": "start", "pid": 2},
            {"ts": 14.0, "type": "request", "key": "k3",
             "outcome": "executed", "worker": "w2",
             "spans": [{"name": "simulate", "wall_s": 3.0, "cpu_s": 2.5},
                       {"name": "store_write", "wall_s": 0.25,
                        "cpu_s": 0.25}]},
            {"ts": 14.5, "type": "rebuild", "rebuilds": 2, "degraded": True},
            {"ts": 15.0, "type": "summary",
             "counters": {"executed": 1, "store_hits": 0, "mode": "pool"}},
        ])
        merged = summarize_journals([first, second])
        assert merged["journals"] == 2
        assert merged["events"] == 9
        assert merged["requests"] == {"memo": 0, "store": 1, "executed": 2,
                                      "total": 3}
        assert merged["workers"] == {"w1": 1, "w2": 1}
        assert merged["phases"]["simulate"] == {
            "count": 2, "wall_s": pytest.approx(5.0),
            "cpu_s": pytest.approx(4.0)}
        assert merged["phases"]["store_write"]["count"] == 1
        assert (merged["started"], merged["ended"]) == (9.0, 15.0)
        assert merged["duration_s"] == pytest.approx(6.0)
        assert merged["rebuilds"] == 3
        assert merged["counters"] == {"executed": 2, "store_hits": 1,
                                      "mode": "inline"}

    def test_provenance_never_raises(self, tmp_path):
        info = provenance(tmp_path)  # not a git repo
        assert info["git_commit"] is None
        assert info["hostname"]
        repo = tmp_path / "repo"
        repo.mkdir()
        git = ["git", "-c", "user.name=Test",
               "-c", "user.email=test@example.com",
               "-c", "commit.gpgsign=false"]
        subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
        (repo / "tracked.txt").write_text("tracked\n")
        subprocess.run(git + ["add", "tracked.txt"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-q", "-m", "initial"], cwd=repo,
                       check=True)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                              check=True, capture_output=True, text=True)
        clean = provenance(repo)
        assert clean["git_commit"] == head.stdout.strip()
        assert clean["git_dirty"] is False
        (repo / "untracked.txt").write_text("new\n")
        assert provenance(repo)["git_dirty"] is True


# ---------------------------------------------------------------------------
# engine telemetry
# ---------------------------------------------------------------------------

class TestEngineTelemetry:
    def test_disabled_engine_collects_nothing(self):
        with Engine() as engine:
            engine.run(_request())
        assert len(collector()) == 0
        assert not engine.telemetry_active

    def test_counters_to_dict(self):
        with Engine() as engine:
            engine.run(_request())
            engine.run(_request())
        snap = engine.counters.to_dict()
        assert snap["executed"] == 1
        assert snap["memo_hits"] == 1
        assert snap["total"] == 2
        # the same numbers are visible through the metric registry
        assert engine.metrics.to_dict()["counters"]["engine_executed"] == 1.0

    def test_inline_run_journals_phases(self, tmp_path):
        path = tmp_path / "run.jsonl"
        reset_trace_cache()
        with Engine(telemetry=path) as engine:
            engine.run(_request())
        assert validate_journal(path) == []
        summary = summarize_journal(path)
        assert summary["requests"]["executed"] == 1
        for phase in ("simulate", "trace_build", "request"):
            assert summary["phases"][phase]["count"] >= 1
        # summary event is the final event and carries the counters
        events = [e for _, e in read_journal(path)]
        assert events[-1]["type"] == "summary"
        assert events[-1]["counters"]["executed"] == 1

    def test_pool_spans_merge_exactly_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        requests = [_request(), _request(policy="none")]
        with Engine(store=ResultStore(tmp_path / "s.sqlite"), jobs=2,
                    telemetry=path) as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 2
        summary = summarize_journal(path)
        assert summary["requests"]["executed"] == 2
        # each executed request contributes exactly one simulate span
        assert summary["phases"]["simulate"]["count"] == 2
        # worker attribution sums to the executed count
        assert sum(summary["workers"].values()) == 2
        for worker in summary["workers"]:
            assert worker.startswith("pid")

    def test_warm_rerun_journals_no_execution(self, tmp_path):
        store = tmp_path / "s.sqlite"
        requests = [_request(), _request(policy="none")]
        with Engine(store=ResultStore(store), jobs=2,
                    telemetry=tmp_path / "cold.jsonl") as engine:
            engine.run_many(requests)
        reset_trace_cache()  # a genuinely cold process
        warm = tmp_path / "warm.jsonl"
        with Engine(store=ResultStore(store), telemetry=warm) as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 0
            assert engine.counters.trace_builds == 0
        assert validate_journal(warm) == []
        summary = summarize_journal(warm)
        assert summary["requests"]["executed"] == 0
        assert summary["requests"]["store"] == 2
        assert "simulate" not in summary["phases"]
        assert "trace_build" not in summary["phases"]

    def test_closed_engine_restores_span_enablement(self, tmp_path):
        with Engine(telemetry=tmp_path / "run.jsonl"):
            assert collector().enabled
        assert not collector().enabled


# ---------------------------------------------------------------------------
# bench history
# ---------------------------------------------------------------------------

def _fake_report(score, commit="abc123def456", dirty=False):
    return {
        "timestamp": 1000.0,
        "quick": True,
        "hostname": "box",
        "git_commit": commit,
        "git_dirty": dirty,
        "calibration_mops": 10.0,
        "geomean_ips": score * 10,
        "geomean_ips_per_mop": score,
    }


class TestBenchHistory:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(_fake_report(100.0), path)
        append_history(_fake_report(120.0), path)
        entries = load_history(path)
        assert [e["geomean_ips_per_mop"] for e in entries] == [100.0, 120.0]
        assert entries[0]["schema"] == 1
        assert entries[0]["git_commit"] == "abc123def456"

    def test_load_missing_and_torn(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []
        path = tmp_path / "hist.jsonl"
        append_history(_fake_report(100.0), path)
        with open(path, "a") as fh:
            fh.write('{"torn')
        assert len(load_history(path)) == 1

    def test_history_entry_drops_cell_detail(self):
        report = _fake_report(100.0)
        report["cells"] = [{"big": "table"}]
        assert "cells" not in history_entry(report)

    def test_format_trend(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(_fake_report(100.0), path)
        append_history(_fake_report(150.0, dirty=True), path)
        text = format_trend(load_history(path))
        assert "2 runs" in text
        assert "abc123def4" in text
        assert "abc123def4*" in text  # dirty marker
        assert "1.50x" in text
        assert "▁" in text and "█" in text

    def test_format_trend_empty(self):
        assert "no runs" in format_trend([])
