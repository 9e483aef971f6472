"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "athena" in out
        assert "pythia" in out
        assert "popet" in out
        assert "evaluation workloads (100)" in out
        assert "google" in out

    def test_lists_component_schemas(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "component parameter schemas:" in out
        # every family appears with its constructor parameters
        assert "prefetcher streamer" in out and "table_size=64" in out
        assert "policy mab" in out and "discount=0.98" in out
        assert "ocp ttp" in out and "capacity_lines=65536" in out
        assert "design cd1" in out and "bandwidth_gbps=3.2" in out
        assert "policy naive" in out and "(no options)" in out


class TestRun:
    def test_run_prints_speedup(self, capsys):
        assert main(["run", "ligra.BFS.0", "--policy", "naive",
                     "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "speedup:" in out
        assert "ipc:" in out

    def test_run_unknown_workload_exits_nonzero(self, capsys):
        assert main(["run", "no.such.workload", "--length", "3000"]) == 2
        err = capsys.readouterr().err
        assert "no workload named" in err

    def test_run_unknown_policy_exits_nonzero(self, capsys):
        assert main(["run", "ligra.BFS.0", "--policy", "wat",
                     "--length", "3000"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err

    def test_run_with_seed_and_policy_config(self, capsys):
        assert main(["run", "ligra.BFS.0", "--policy", "athena",
                     "--length", "3000", "--seed", "7",
                     "--policy-config", "alpha=0.4"]) == 0
        out = capsys.readouterr().out
        assert "seed:      7" in out
        assert "speedup:" in out

    def test_run_seed_rejected_for_unseeded_policy(self, capsys):
        assert main(["run", "ligra.BFS.0", "--policy", "naive",
                     "--length", "3000", "--seed", "7"]) == 2
        err = capsys.readouterr().err
        assert "unsupported options" in err

    def test_run_bad_policy_config_syntax(self, capsys):
        assert main(["run", "ligra.BFS.0", "--length", "3000",
                     "--policy-config", "alpha"]) == 2
        err = capsys.readouterr().err
        assert "KEY=VALUE" in err

    def test_run_unknown_policy_config_key(self, capsys):
        assert main(["run", "ligra.BFS.0", "--policy", "athena",
                     "--length", "3000",
                     "--policy-config", "wibble=1"]) == 2
        err = capsys.readouterr().err
        assert "unsupported athena options" in err

    def test_run_execution_failure_exits_3(self, capsys, monkeypatch):
        # repro run resolves through the engine, so a simulation that
        # fails after its retries is reported, not raised
        monkeypatch.setenv("REPRO_FAULTS", "raise=1.0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        assert main(["run", "ligra.BFS.0", "--policy", "naive",
                     "--length", "3000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 request(s) did not complete" in captured.err


class TestFigures:
    def test_no_figures_requested(self, capsys):
        assert main(["figures", "--no-store"]) == 2
        assert "no figures requested" in capsys.readouterr().err

    def test_unknown_figure_id(self, capsys):
        assert main(["figures", "Fig99", "--no-store"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_known_figure_runs(self, capsys, monkeypatch):
        # Run the cheapest driver at the tiny scale to keep the test fast.
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["figures", "Fig3", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "Fig3" in out
        assert "engine:" in out

    def test_parallel_figures_with_store(self, capsys, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        store = str(tmp_path / "store.sqlite")
        assert main(["figures", "Fig3", "--jobs", "2",
                     "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "Fig3" in cold
        assert "engine:" in cold
        assert "0 simulations executed" not in cold
        # Warm rerun in a fresh engine: everything replays from the store.
        assert main(["figures", "Fig3", "--jobs", "2",
                     "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "engine: 0 simulations executed" in warm
        # The emitted table is identical, cold vs warm.
        assert warm.split("engine:")[0] == cold.split("engine:")[0]


class TestSweep:
    def test_sweep_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["sweep", "--workloads", "ligra.BFS.0",
                     "--designs", "cd1", "--policies", "none,naive",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "cd1/none" in out
        assert "cd1/naive" in out
        assert "geomean" in out
        assert "engine:" in out

    def test_sweep_rejects_unknown_policy(self, capsys):
        assert main(["sweep", "--policies", "wat", "--no-store"]) == 2
        assert "unknown policies" in capsys.readouterr().err

    def test_sweep_rejects_unknown_design(self, capsys):
        assert main(["sweep", "--designs", "cd9", "--no-store"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_sweep_rejects_unknown_workload(self, capsys):
        assert main(["sweep", "--workloads", "no.such",
                     "--no-store"]) == 2
        assert "no workload named" in capsys.readouterr().err

    def test_sweep_rejects_pool_typo(self, capsys):
        # "pool5" must not silently select the full default pool.
        assert main(["sweep", "--workloads", "pool5",
                     "--no-store"]) == 2
        assert "no workload named" in capsys.readouterr().err

    def test_store_path_at_foreign_file_is_refused(self, capsys,
                                                   tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("do not clobber me")
        assert main(["figures", "Fig3", "--store", str(notes)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert notes.read_text() == "do not clobber me"


class TestTrace:
    def _write(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("0x400000,L,0x10000\n0x400004,N\n"
                        "0x400008,S,0x10040\n")
        return path

    def test_import_prints_identity_and_stats(self, capsys, tmp_path):
        path = self._write(tmp_path)
        assert main(["trace", "import", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sha256:" in out
        assert "fingerprint:" in out
        assert "trace://" in out
        assert "instructions:     3" in out

    def test_import_missing_file_exits_nonzero(self, capsys):
        assert main(["trace", "import", "/no/such/file.csv"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_import_malformed_file_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0x400000,L\n")
        assert main(["trace", "import", str(path)]) == 2
        assert "bad.csv:1" in capsys.readouterr().err

    def test_inspect_external_and_registry(self, capsys, tmp_path):
        path = self._write(tmp_path)
        assert main(["trace", "inspect", str(path)]) == 0
        assert "external" in capsys.readouterr().out
        assert main(["trace", "inspect", "ext.producer_consumer.0",
                     "--length", "2000"]) == 0
        assert "producer_consumer" in capsys.readouterr().out

    def test_inspect_path_with_uri_metacharacters(self, capsys, tmp_path):
        path = tmp_path / "a?b %20.csv"
        path.write_text("0x400000,N\n")
        assert main(["trace", "inspect", str(path)]) == 0
        assert "instructions:     1" in capsys.readouterr().out

    def test_inspect_unknown_workload_exits_nonzero(self, capsys):
        assert main(["trace", "inspect", "no.such.workload"]) == 2
        assert "no workload named" in capsys.readouterr().err

    def test_run_accepts_trace_source(self, capsys, tmp_path):
        path = self._write(tmp_path)
        assert main(["run", f"trace://{path}", "--policy", "none",
                     "--length", "1000"]) == 0
        assert "speedup:" in capsys.readouterr().out


class TestObs:
    def _journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        path = tmp_path / "run.jsonl"
        assert main(["sweep", "--workloads", "ligra.BFS.0",
                     "--designs", "cd1", "--policies", "none,naive",
                     "--store", str(tmp_path / "s.sqlite"),
                     "--telemetry", str(path)]) == 0
        return path

    def test_sweep_telemetry_then_summary(self, capsys, monkeypatch,
                                          tmp_path):
        path = self._journal(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["obs", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "executed," in out
        assert "simulate" in out
        assert "trace_build" in out
        assert "executed per worker:" in out

    def test_validate_and_spans(self, capsys, monkeypatch, tmp_path):
        path = self._journal(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["obs", "validate", str(path)]) == 0
        assert "events OK" in capsys.readouterr().out
        assert main(["obs", "spans", str(path)]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_validate_flags_broken_journal(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 1.0, "type": "nope"}\n{"also": "bad"}\n')
        assert main(["obs", "validate", str(path)]) == 1
        assert "schema errors" in capsys.readouterr().err

    def test_export_prometheus_and_json(self, capsys, monkeypatch,
                                        tmp_path):
        path = self._journal(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["obs", "export", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE engine_executed counter" in out
        assert main(["obs", "export", "--format", "json", str(path)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "engine_executed" in snapshot["counters"]

    def test_export_without_summary_event_fails(self, capsys, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ts": 1.0, "type": "start", "schema": 1, '
                        '"pid": 1}\n')
        assert main(["obs", "export", str(path)]) == 2
        assert "no summary event" in capsys.readouterr().err

    def test_missing_journal_fails(self, capsys, tmp_path):
        assert main(["obs", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_warm_rerun_journal_is_execution_free(self, capsys,
                                                  monkeypatch, tmp_path):
        self._journal(tmp_path, monkeypatch)
        warm = tmp_path / "warm.jsonl"
        assert main(["sweep", "--workloads", "ligra.BFS.0",
                     "--designs", "cd1", "--policies", "none,naive",
                     "--store", str(tmp_path / "s.sqlite"),
                     "--telemetry", str(warm)]) == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(warm)]) == 0
        out = capsys.readouterr().out
        assert "requests: 0 executed" in out
        # no simulate/trace_build phase rows (padded names; the final
        # counters line legitimately mentions trace_builds=0)
        assert "simulate " not in out
        assert "trace_build " not in out
        assert "trace_builds=0" in out


class TestBenchTrend:
    def test_trend_renders_appended_history(self, capsys, tmp_path):
        from repro.bench import append_history

        history = tmp_path / "BENCH_history.jsonl"
        append_history({"timestamp": 1000.0, "quick": True,
                        "git_commit": "abc123def456", "git_dirty": False,
                        "geomean_ips_per_mop": 100.0}, history)
        assert main(["bench", "--trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "bench history: 1 runs" in out
        assert "abc123def4" in out

    def test_trend_default_path_is_next_to_output(self, capsys, tmp_path):
        from repro.bench import append_history

        append_history({"geomean_ips_per_mop": 50.0},
                       tmp_path / "BENCH_history.jsonl")
        assert main(["bench", "--trend",
                     "--output", str(tmp_path / "bench.json")]) == 0
        assert "1 runs" in capsys.readouterr().out

    def test_trend_without_history_fails(self, capsys, tmp_path):
        assert main(["bench", "--trend",
                     "--history", str(tmp_path / "nope.jsonl")]) == 2
        assert "no bench history" in capsys.readouterr().err

    def test_store_phase_reports_payloads_per_second(self, capsys,
                                                     tmp_path):
        output = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--phase", "store",
                     "--output", str(output)]) == 0
        assert "result store" in capsys.readouterr().out
        report = json.loads(output.read_text())
        cell = report["store_cell"]
        assert cell["payloads"] == 50 and cell["epochs"] == 40
        assert cell["read_payloads_per_s"] > cell["payloads_per_s"] > 0
        entry = json.loads((tmp_path / "BENCH_history.jsonl").read_text())
        assert entry["store_payloads_per_s"] == cell["payloads_per_s"]
        assert entry["store_read_payloads_per_s"] == \
            cell["read_payloads_per_s"]
        assert entry["store_row_bytes"] == cell["row_bytes"] > 0


class TestArgparse:
    def test_figure_help_names_only_registered_figures(self):
        import re

        from repro.cli import _build_parser
        from repro.experiments.figures import FIGURES

        parser = _build_parser()
        text = parser._subparsers._group_actions[0].choices[
            "figures"].format_help()
        named = re.findall(r"\b(?:Fig|Tab)\d+[a-z]?\b", text)
        assert named
        assert set(named) <= set(FIGURES), named

    def test_engine_flags_reach_the_engine(self, tmp_path):
        from repro.cli import _build_parser, _make_engine

        args = _build_parser().parse_args(
            ["worker", "--queue", str(tmp_path / "q.sqlite"),
             "--no-store", "--max-retries", "5", "--timeout", "7.5",
             "--faults", "raise=0.5,seed=3"])
        with _make_engine(args) as engine:
            assert engine.store is None
            assert engine.queue is None
            assert engine.resilience.max_retries == 5
            assert engine.resilience.timeout_s == 7.5
            assert engine.faults.rates == (("raise", 0.5),)
            assert engine.faults.seed == 3

    def test_no_command_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
