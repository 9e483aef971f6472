"""Tests for the repro.api SDK: specs, registry, sessions, exp CLI."""

import json
import sqlite3

import pytest

from repro.api import (
    ExperimentSpec,
    FigureSpec,
    MixSpec,
    RunSpec,
    Session,
    SpecError,
    SweepSpec,
    make_design,
    registry,
)
from repro.api.params import coerce_value, normalize_params, parse_assignments
from repro.engine import Engine, ResultStore


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")


def small_experiment() -> ExperimentSpec:
    return ExperimentSpec(
        name="unit",
        sweeps=[SweepSpec(workloads=["ligra.BFS.0"], designs=["cd1"],
                          policies=["none", "naive"])],
        runs=[RunSpec(workload="spec06.mcf_like.0", policy="athena",
                      policy_params={"alpha": 0.4})],
        mixes=[MixSpec(workloads=["ligra.BFS.0", "spec06.mcf_like.0"],
                       trace_length=2000)],
    )


#: :func:`small_experiment` as a spec file
SMALL_EXPERIMENT_TOML = """\
name = "unit"

[[sweeps]]
workloads = ["ligra.BFS.0"]
designs = ["cd1"]
policies = ["none", "naive"]

[[runs]]
workload = "spec06.mcf_like.0"
policy = "athena"
policy_params = { alpha = 0.4 }

[[mixes]]
workloads = ["ligra.BFS.0", "spec06.mcf_like.0"]
trace_length = 2000
"""


# ---------------------------------------------------------------------------
# params helper
# ---------------------------------------------------------------------------

class TestParams:
    def test_coercion_matches_cli_semantics(self):
        assert coerce_value("0.4") == 0.4
        assert coerce_value("7") == 7
        assert coerce_value("True") is True
        assert coerce_value("cd1") == "cd1"
        assert coerce_value("(1, 2)") == (1, 2)

    def test_parse_assignments(self):
        assert parse_assignments(["alpha=0.4", "seed=7"]) == {
            "alpha": 0.4, "seed": 7,
        }

    def test_parse_assignments_rejects_bare_key(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_assignments(["alpha"], option="--policy-config")

    def test_normalize_accepts_mapping_and_kv_list(self):
        # Spec tables and CLI KEY=VALUE lists must parse identically.
        assert normalize_params({"alpha": 0.4}) == \
            normalize_params(["alpha=0.4"])

    def test_normalize_rejects_bare_string(self):
        with pytest.raises(ValueError, match="list of KEY=VALUE"):
            normalize_params("alpha=0.4")


# ---------------------------------------------------------------------------
# unified registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_kinds_populated(self):
        assert registry.names("policy") == \
            ["athena", "hpac", "mab", "naive", "none", "tlp"]
        assert "pythia" in registry.names("prefetcher")
        assert registry.names("ocp") == ["hmp", "popet", "ttp"]
        assert registry.names("design") == ["cd1", "cd2", "cd3", "cd4"]
        assert registry.names("trace_adapter") == ["memtrace", "npz"]

    def test_unknown_names_raise_value_error(self):
        for kind in ("policy", "prefetcher", "ocp", "design"):
            with pytest.raises(ValueError, match=f"unknown {kind}"):
                registry.create(kind, "wibble")

    def test_schema_validation_rejects_unknown_options(self):
        with pytest.raises(ValueError, match="unsupported options"):
            registry.create("prefetcher", "streamer", wibble=1)
        with pytest.raises(ValueError, match="unsupported athena options"):
            registry.create("policy", "athena", wibble=1)
        with pytest.raises(ValueError, match="accepts no options"):
            registry.create("policy", "none", seed=1)

    def test_schemas_expose_defaults(self):
        schema = registry.schema("policy", "mab")
        assert schema["discount"].default == 0.98
        assert not schema["discount"].required
        assert registry.schema("prefetcher", "streamer")[
            "table_size"].default == 64

    def test_prefetcher_kwargs_construct(self):
        pf = registry.create("prefetcher", "streamer", table_size=16)
        assert pf.table_size == 16

    def test_make_design_with_params(self):
        design = make_design("cd1", bandwidth_gbps=6.4, l2c="sms")
        assert design.bandwidth_gbps == 6.4
        assert design.prefetcher_names == ("sms",)
        with pytest.raises(ValueError, match="unknown design"):
            make_design("cd9")

    def test_plugin_decorator_registers_everywhere(self):
        from repro.api import register_policy
        from repro.policies import make_policy
        from repro.policies.base import NaivePolicy

        name = "unit_test_plugin_policy"
        assert name not in registry.names("policy")

        @register_policy(name)
        class PluginPolicy(NaivePolicy):
            pass

        assert isinstance(make_policy(name), PluginPolicy)
        assert name in registry.names("policy")
        assert registry.get("policy", name).factory is PluginPolicy
        # a RunSpec naming the plugin validates
        RunSpec(workload="ligra.BFS.0", policy=name)

    def test_plugin_decorator_refuses_builtin_clobber(self):
        from repro.api import register_policy
        from repro.policies import make_policy
        from repro.policies.athena import AthenaPolicy

        with pytest.raises(ValueError, match="already registered"):
            @register_policy("athena")
            class ImpostorPolicy:
                pass
        # the built-in survives untouched
        assert isinstance(make_policy("athena"), AthenaPolicy)

    def test_prefetcher_plugin_reaches_make_prefetcher(self):
        from repro.api import register_prefetcher
        from repro.prefetchers import make_prefetcher
        from repro.prefetchers.streamer import StreamPrefetcher

        @register_prefetcher("unit_test_plugin_prefetcher")
        class PluginPrefetcher(StreamPrefetcher):
            pass

        pf = make_prefetcher("unit_test_plugin_prefetcher", table_size=16)
        assert isinstance(pf, PluginPrefetcher)
        assert pf.table_size == 16

    def test_ocp_plugin_reaches_make_ocp(self):
        from repro.api import register_ocp
        from repro.ocp import make_ocp
        from repro.ocp.hmp import HmpPredictor

        @register_ocp("unit_test_plugin_ocp")
        class PluginOcp(HmpPredictor):
            pass

        assert isinstance(make_ocp("unit_test_plugin_ocp"), PluginOcp)
        assert "unit_test_plugin_ocp" in registry.names("ocp")

    def test_registry_is_the_only_name_table(self):
        # Component names live in the registry alone: no family package
        # keeps a second name -> factory dict, and the registry consults
        # no fallback tables.
        import importlib

        import repro.ocp
        import repro.prefetchers
        import repro.workloads
        import repro.workloads.ingest
        from repro.api.registry import ComponentRegistry

        assert not hasattr(ComponentRegistry, "set_fallback")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.policies.registry")
        assert not hasattr(repro.prefetchers, "PREFETCHERS")
        assert not hasattr(repro.ocp, "OCPS")
        assert not hasattr(repro.workloads.ingest, "TRACE_ADAPTERS")
        assert not hasattr(repro.workloads, "TRACE_ADAPTERS")


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def test_unknown_workload(self):
        with pytest.raises(SpecError, match="no workload named"):
            RunSpec(workload="no.such.workload")

    def test_unknown_policy(self):
        with pytest.raises(SpecError, match="unknown policy"):
            RunSpec(workload="ligra.BFS.0", policy="wat")

    def test_unknown_policy_param(self):
        with pytest.raises(SpecError, match="unsupported athena options"):
            RunSpec(workload="ligra.BFS.0", policy="athena",
                    policy_params={"wibble": 1})

    def test_unknown_design_param(self):
        with pytest.raises(SpecError, match="unsupported options"):
            RunSpec(workload="ligra.BFS.0",
                    design_params={"nonsense": True})

    def test_unknown_variant(self):
        with pytest.raises(SpecError, match="unknown variant"):
            RunSpec(workload="ligra.BFS.0", variant="half")

    def test_bad_lengths(self):
        with pytest.raises(SpecError, match="trace_length"):
            RunSpec(workload="ligra.BFS.0", trace_length=0)
        with pytest.raises(SpecError, match="warmup_fraction"):
            RunSpec(workload="ligra.BFS.0", warmup_fraction=1.5)

    def test_string_lengths_fail_as_spec_error(self):
        # quoted TOML numbers must be a validation error, not TypeError
        with pytest.raises(SpecError, match="positive integer"):
            RunSpec(workload="ligra.BFS.0", trace_length="64000")
        with pytest.raises(SpecError, match="warmup_fraction"):
            RunSpec(workload="ligra.BFS.0", warmup_fraction="0.2")

    def test_bare_string_params_fail_as_spec_error(self):
        with pytest.raises(SpecError, match="list of KEY=VALUE"):
            RunSpec(workload="ligra.BFS.0", policy="athena",
                    policy_params="alpha=0.4")

    def test_sweep_unknown_policy_list(self):
        with pytest.raises(SpecError, match="unknown policies"):
            SweepSpec(workloads=["ligra.BFS.0"], policies=["wat"])

    def test_sweep_bad_pool_size(self):
        with pytest.raises(SpecError, match="bad pool size"):
            SweepSpec(workloads="pool:x")

    def test_sweep_empty_workload_list(self):
        with pytest.raises(SpecError, match="at least one workload"):
            SweepSpec(workloads=[])

    def test_figure_spec_unknown(self):
        with pytest.raises(SpecError, match="unknown figures"):
            FigureSpec(figures=["Fig99"])

    def test_empty_experiment_rejected(self):
        with pytest.raises(SpecError, match="empty"):
            ExperimentSpec(name="nothing")

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown run spec fields"):
            RunSpec.from_dict({"workload": "ligra.BFS.0", "wibble": 1})
        with pytest.raises(SpecError, match="unknown experiment spec"):
            ExperimentSpec.from_dict({"name": "x", "wibble": []})

    def test_unknown_scale(self):
        with pytest.raises(SpecError, match="unknown scale"):
            ExperimentSpec(name="x", scale="huge",
                           runs=[RunSpec(workload="ligra.BFS.0")])

    def test_policy_params_accept_kv_strings(self):
        spec = RunSpec(workload="ligra.BFS.0", policy="athena",
                       policy_params=["alpha=0.4"])
        assert spec.policy_params == {"alpha": 0.4}

    def test_value_type_mismatch_fails_eagerly(self):
        # a TOML quoting mistake must fail at spec construction, not
        # inside a pool worker mid-run
        with pytest.raises(SpecError, match="invalid value for option"):
            RunSpec(workload="ligra.BFS.0", policy="mab",
                    policy_params={"discount": "0.98"})

    def test_required_params_enforced_eagerly(self):
        # a plugin with a required constructor arg must fail validation,
        # not TypeError at lowering time
        from repro.api import register_policy

        name = "unit_test_required_arg_policy"

        @register_policy(name)
        class NeedsBarPolicy:
            def __init__(self, bar):
                self.bar = bar

        with pytest.raises(ValueError, match="missing required"):
            registry.create("policy", name)
        assert registry.create("policy", name, bar=3).bar == 3

    def test_constructor_errors_surface_undisguised(self):
        # a range error from the constructor must not be rewritten
        # into an "unsupported options" message
        with pytest.raises(ValueError, match="discount must be in"):
            registry.create("policy", "mab", discount=7.0)

    def test_dataclass_params_accept_tables_for_all_components(self):
        # hpac's thresholds table must reconstruct into the dataclass
        # (not just athena's config), and a bad table must fail eagerly
        from repro.policies.hpac import HpacPolicy

        policy = registry.create(
            "policy", "hpac", thresholds={"accuracy_high": 0.7})
        assert isinstance(policy, HpacPolicy)
        assert policy.thresholds.accuracy_high == 0.7
        with pytest.raises(ValueError, match="invalid value for option"):
            RunSpec(workload="ligra.BFS.0", policy="hpac",
                    policy_params={"thresholds": {"wibble": 1}})
        # a good table validates at spec construction too
        RunSpec(workload="ligra.BFS.0", policy="hpac",
                policy_params={"thresholds": {"accuracy_high": 0.7}})

    def test_kwargs_factories_accept_any_option(self):
        # a **kwargs plugin must not be rejected by schema validation
        from repro.api import register_policy
        from repro.policies import make_policy

        name = "unit_test_kwargs_policy"

        @register_policy(name)
        class FlexPolicy:
            def __init__(self, **kw):
                self.kw = kw

        assert make_policy(name, gain=2).kw == {"gain": 2}
        RunSpec(workload="ligra.BFS.0", policy=name,
                policy_params={"gain": 2})

    def test_dataclass_param_round_trips(self):
        # object-built and file-built specs must compare equal and
        # share one content key
        from repro.core.config import RewardWeights

        spec = ExperimentSpec(name="rw", runs=[RunSpec(
            workload="ligra.BFS.0", policy="athena",
            policy_params={"reward_weights": RewardWeights(cycles=2.0)},
        )])
        rt = ExperimentSpec.from_toml("""\
name = "rw"

[[runs]]
workload = "ligra.BFS.0"
policy = "athena"
policy_params = { reward_weights = { cycles = 2.0, llc_misses = 0.0, \
llc_miss_latency = 0.0, loads = 0.6, mispredicted_branches = 1.0 } }
""")
        assert rt == spec
        assert rt.content_key() == spec.content_key()
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        config = spec.runs[0].athena_config()
        assert config.reward_weights == RewardWeights(cycles=2.0)


# ---------------------------------------------------------------------------
# spec round-trips
# ---------------------------------------------------------------------------

class TestSpecRoundTrips:
    def test_dict_round_trip(self):
        spec = small_experiment()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = small_experiment()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_toml_file_equals_object_spec(self):
        spec = small_experiment()
        rt = ExperimentSpec.from_toml(SMALL_EXPERIMENT_TOML)
        assert rt == spec
        assert rt.content_key() == spec.content_key()

    def test_content_key_changes_with_content(self):
        spec = small_experiment()
        other = ExperimentSpec.from_dict(spec.to_dict())
        other.runs[0].policy_params["alpha"] = 0.5
        assert other.content_key() != spec.content_key()

    def test_load_files(self, tmp_path):
        spec = small_experiment()
        (tmp_path / "spec.toml").write_text(SMALL_EXPERIMENT_TOML)
        (tmp_path / "spec.json").write_text(spec.to_json())
        for name in ("spec.toml", "spec.json"):
            assert ExperimentSpec.load(tmp_path / name) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            ExperimentSpec.load(tmp_path / "nope.toml")

    def test_load_rejects_unsupported_format(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: x\n")
        with pytest.raises(SpecError, match="unsupported spec format"):
            ExperimentSpec.load(path)

    def test_invalid_toml_and_json(self):
        with pytest.raises(SpecError, match="invalid TOML"):
            ExperimentSpec.from_toml("= 3 =")
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentSpec.from_json("{nope")

    def test_checked_in_example_spec_equals_object_spec(self):
        spec = ExperimentSpec.load("examples/experiment_spec.toml")
        built = ExperimentSpec(
            name="quickstart-experiment",
            sweeps=[SweepSpec(
                workloads=["ligra.BFS.0", "spec06.libquantum_like.0"],
                designs=["cd1"], policies=["none", "naive"])],
            runs=[RunSpec(workload="spec06.mcf_like.0", policy="athena",
                          policy_params={"alpha": 0.4})],
            mixes=[MixSpec(workloads=["ligra.BFS.0", "spec06.mcf_like.0"],
                           policy="naive")],
        )
        assert spec == built
        assert spec.content_key() == built.content_key()


# ---------------------------------------------------------------------------
# lowering: spec requests must equal the CLI planner's requests
# ---------------------------------------------------------------------------

class TestLowering:
    def test_run_spec_keys_match_plan_speedup(self):
        from repro.experiments.configs import CacheDesign
        from repro.experiments.runner import ExperimentContext
        from repro.workloads.suites import find_workload

        ctx = ExperimentContext()
        expected = [
            r.key() for r in ctx.plan_speedup(
                find_workload("ligra.BFS.0"), CacheDesign.cd1(), "athena"
            )
        ]
        got = [
            r.key()
            for r in RunSpec(workload="ligra.BFS.0", policy="athena").plan(ctx)
        ]
        assert got == expected

    def test_sweep_spec_keys_match_cli_sweep_planner(self):
        from repro.experiments.configs import CacheDesign
        from repro.experiments.runner import ExperimentContext
        from repro.workloads.suites import find_workload

        ctx = ExperimentContext()
        spec = SweepSpec(workloads=["ligra.BFS.0", "spec06.mcf_like.0"],
                         designs=["cd1", "cd2"], policies=["none", "naive"])
        expected = [
            request.key()
            for wspec in (find_workload("ligra.BFS.0"),
                          find_workload("spec06.mcf_like.0"))
            for design in (CacheDesign.cd1(), CacheDesign.cd2())
            for policy in ("none", "naive")
            for request in ctx.plan_speedup(wspec, design, policy)
        ]
        assert sorted(r.key() for r in spec.plan(ctx)) == sorted(expected)

    def test_policy_options_change_request_key(self):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext()
        plain = RunSpec(workload="ligra.BFS.0", policy="mab").plan(ctx)
        tuned = RunSpec(workload="ligra.BFS.0", policy="mab",
                        policy_params={"discount": 0.9}).plan(ctx)
        assert plain[0].key() == tuned[0].key()  # shared baseline
        assert plain[1].key() != tuned[1].key()

    def test_unhashable_policy_option_plans(self):
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext()
        spec = RunSpec(workload="ligra.BFS.0", policy="hpac",
                       policy_params={"thresholds": {"accuracy_high": 0.7}})
        first, second = spec.plan(ctx), spec.plan(ctx)
        assert first[0] is second[0]  # the baseline is planned once
        assert first[1] is not second[1]
        assert first[1].key() == second[1].key()

    def test_athena_requests_reject_policy_options(self):
        # policy_options is hashed into the key but athena executes
        # from athena_config only; accepting both would poison the
        # store with mislabeled results
        from repro.engine.jobs import RunRequest
        from repro.experiments.configs import CacheDesign
        from repro.experiments.runner import ExperimentContext
        from repro.workloads.suites import find_workload

        wspec = find_workload("ligra.BFS.0")
        with pytest.raises(ValueError, match="athena_config"):
            RunRequest(spec=wspec, trace_length=1000,
                       design=CacheDesign.cd1(), policy_name="athena",
                       policy_options=(("alpha", 0.9),))
        ctx = ExperimentContext()
        with pytest.raises(ValueError, match="athena_config"):
            ctx.plan_speedup(wspec, CacheDesign.cd1(), "athena",
                             policy_options=(("alpha", 0.9),))

    def test_option_free_requests_keep_legacy_keys(self):
        # policy_options must not perturb existing content hashes, or a
        # warm store would go cold on upgrade.
        from repro.engine.jobs import RunRequest
        from repro.experiments.configs import CacheDesign
        from repro.workloads.suites import find_workload

        request = RunRequest(
            spec=find_workload("ligra.BFS.0"), trace_length=1000,
            design=CacheDesign.cd1(),
        )
        assert "policy_options" not in request.canonical()


# ---------------------------------------------------------------------------
# Session semantics
# ---------------------------------------------------------------------------

def _stored_session(path) -> Session:
    return Session(Engine(store=ResultStore(path)))


class TestSession:
    def test_run_and_cache_flag(self, tmp_path):
        with _stored_session(tmp_path / "s.sqlite") as session:
            cold = session.run(RunSpec(workload="ligra.BFS.0",
                                       policy="naive"))
            assert not cold.cached
            assert cold.speedup == pytest.approx(
                cold.ipc / cold.baseline_ipc)
            warm = session.run(RunSpec(workload="ligra.BFS.0",
                                       policy="naive"))
            assert warm.cached
            assert warm.ipc == cold.ipc
        # a fresh session replays everything from the store
        with _stored_session(tmp_path / "s.sqlite") as session:
            replay = session.run(RunSpec(workload="ligra.BFS.0",
                                         policy="naive"))
            assert replay.cached
            assert replay.ipc == cold.ipc
            assert session.counters.executed == 0

    def test_run_result_exports(self):
        with Session() as session:
            result = session.run(RunSpec(workload="ligra.BFS.0",
                                         policy="naive"))
        rows = result.to_rows()
        assert rows[0]["workload"] == "ligra.BFS.0"
        assert json.loads(result.to_json())[0]["policy"] == "naive"
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0].startswith("workload,")
        assert "ligra.BFS.0" in csv_text

    def test_sweep_matches_context_speedups(self):
        from repro.experiments.configs import CacheDesign
        from repro.workloads.suites import find_workload

        with Session() as session:
            result = session.sweep(SweepSpec(
                workloads=["ligra.BFS.0"], designs=["cd1"],
                policies=["none", "naive"],
            ))
            expected = session.context.speedup(
                find_workload("ligra.BFS.0"), CacheDesign.cd1(), "naive"
            )
        assert result.table.row("ligra.BFS.0")["cd1/naive"] == expected
        assert {row["policy"] for row in result.to_rows()} == \
            {"none", "naive"}
        # the geomean aggregate renders in the table but must not
        # contaminate the tidy per-observation rows
        assert "geomean" in result.format_table()
        assert all(row["workload"] != "geomean"
                   for row in result.to_rows())

    def test_as_completed_yields_cached_first_in_order(self):
        specs = [
            RunSpec(workload="ligra.BFS.0", policy="naive"),
            RunSpec(workload="spec06.libquantum_like.0", policy="naive"),
            RunSpec(workload="spec06.mcf_like.0", policy="naive"),
        ]
        with Session() as session:
            session.run(specs[1])  # warm the middle spec only
            order = [
                (res.workload, res.cached)
                for res in session.as_completed(specs)
            ]
        # cached spec first, then misses in submission order (serial)
        assert order == [
            ("spec06.libquantum_like.0", True),
            ("ligra.BFS.0", False),
            ("spec06.mcf_like.0", False),
        ]

    def test_as_completed_covers_every_spec_once(self):
        specs = [
            RunSpec(workload="ligra.BFS.0", policy="naive"),
            MixSpec(workloads=["ligra.BFS.0", "spec06.mcf_like.0"],
                    trace_length=2000),
        ]
        with Session() as session:
            results = list(session.as_completed(specs))
        assert len(results) == 2
        kinds = {type(res).__name__ for res in results}
        assert kinds == {"RunResult", "MixResult"}

    def test_cached_flag_immune_to_harvested_foreign_work(self):
        # recording another spec's abandoned pool work during run()
        # must not mislabel a fully-cached spec as uncached
        engine = Engine(jobs=2)
        try:
            with Session(engine=engine) as session:
                first = RunSpec(workload="ligra.BFS.0", policy="naive")
                other = RunSpec(workload="spec06.libquantum_like.0",
                                policy="naive")
                session.run(first)
                stream = session.as_completed([first, other])
                next(stream)
                stream.close()  # other's futures may still be in flight
                assert session.run(first).cached
        finally:
            engine.close()

    def test_cached_flag_agrees_for_work_settled_elsewhere(self, tmp_path):
        # Another process writes the rows just after this engine's first
        # lookup: each key misses once, dispatch finds it in the store
        # and the queue replays it as `done`.  Every entry point must
        # call that cached, as the store_hits counter does.
        class LateStore(ResultStore):
            def __init__(self, path):
                super().__init__(path)
                self.missed = set()

            def get(self, key, *, summary=False):
                if summary and key not in self.missed:
                    self.missed.add(key)
                    return None
                return super().get(key, summary=summary)

        path = tmp_path / "s.sqlite"
        spec = RunSpec(workload="ligra.BFS.0", policy="naive")
        with _stored_session(path) as session:
            assert not session.run(spec).cached

        def late_session():
            return Session(Engine(store=LateStore(path)))

        with late_session() as session:
            requests = spec.plan(session.context)
            engine_flags = [done.cached for done in
                            session.engine.as_completed(requests)]
            assert engine_flags == [True, True]
        with late_session() as session:
            [streamed] = session.as_completed([spec])
            assert streamed.cached
        with late_session() as session:
            assert session.run(spec).cached
        with late_session() as session:
            outcome = session.run_experiment(
                ExperimentSpec(name="late", runs=[spec]))
            assert outcome.of_kind("run")[0].cached
            assert session.counters.executed == 0
            assert session.counters.store_hits == 2

    def test_as_completed_parallel_streams_all(self):
        engine = Engine(jobs=2)
        try:
            with Session(engine=engine) as session:
                specs = [
                    RunSpec(workload="ligra.BFS.0", policy="naive"),
                    RunSpec(workload="spec06.libquantum_like.0",
                            policy="naive"),
                ]
                results = {
                    res.workload: res for res in session.as_completed(specs)
                }
            assert set(results) == {
                "ligra.BFS.0", "spec06.libquantum_like.0",
            }
            assert all(not res.cached for res in results.values())
        finally:
            engine.close()

    def test_run_experiment_sections_and_export(self, tmp_path):
        spec = small_experiment()
        with _stored_session(tmp_path / "s.sqlite") as session:
            outcome = session.run_experiment(spec)
            executed = session.counters.executed
            assert executed > 0
        kinds = [kind for kind, _ in outcome.sections]
        assert kinds == ["sweep", "run", "mix"]
        # cached flags reflect the cold run despite the upfront batch
        assert not outcome.of_kind("run")[0].cached
        assert not outcome.of_kind("mix")[0].cached
        rows = outcome.to_rows()
        assert {row["section"] for row in rows} == {"sweep", "run", "mix"}
        assert "section,workload" in outcome.to_csv().splitlines()[0]
        # warm rerun executes nothing, and sections report cached
        with _stored_session(tmp_path / "s.sqlite") as session:
            warm = session.run_experiment(spec)
            assert session.counters.executed == 0
            assert warm.of_kind("run")[0].cached
            assert warm.of_kind("mix")[0].cached

    def test_warm_experiment_hashes_each_key_once(self, tmp_path,
                                                  monkeypatch):
        from repro.engine import jobs

        spec = ExperimentSpec.load("examples/experiment_spec.toml")
        with _stored_session(tmp_path / "s.sqlite") as session:
            cold = session.run_experiment(spec)
        digested = []
        digest = jobs._digest

        def counting(payload):
            digested.append(digest(payload))
            return digested[-1]

        monkeypatch.setattr(jobs, "_digest", counting)
        with _stored_session(tmp_path / "s.sqlite") as session:
            warm = session.run_experiment(spec)
            assert session.counters.executed == 0
        assert warm.to_rows() == cold.to_rows()
        assert len(digested) == len(set(digested)) == \
            session.counters.store_hits

    def test_experiment_scale_override(self, tmp_path):
        spec = ExperimentSpec(
            name="scaled", scale="tiny",
            runs=[RunSpec(workload="ligra.BFS.0")],
        )
        with Session(scale="small") as session:
            outcome = session.run_experiment(spec)
            # tiny scale => 6000-instruction traces, 35% warmup excluded
            run = outcome.of_kind("run")[0]
            assert run.baseline_result.instructions == 3900
            # the session's own scale is untouched
            assert session.scale.trace_length == 24_000

    def test_session_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            Session(scale="galactic")

    def test_session_store_path_accepts_str(self, tmp_path):
        from repro.cli import _build_parser, _make_session

        path = tmp_path / "sub" / "s.sqlite"
        args = _build_parser().parse_args(
            ["figures", "Fig3", "--store", str(path)])
        with _make_session(args) as session:
            assert isinstance(session.engine.store, ResultStore)
        assert path.exists()

    def test_session_closes_the_engine_it_wraps(self, tmp_path):
        path = tmp_path / "sub" / "s.sqlite"
        engine = Engine(store=ResultStore(str(path)))
        with Session(engine) as session:
            assert session.engine is engine
        assert path.exists()
        with pytest.raises(sqlite3.ProgrammingError):
            len(engine.store)


# ---------------------------------------------------------------------------
# engine streaming primitive
# ---------------------------------------------------------------------------

class TestEngineAsCompleted:
    def make_requests(self, count=3):
        from repro.experiments.configs import CacheDesign
        from repro.experiments.runner import ExperimentContext
        from repro.workloads.suites import evaluation_workloads

        ctx = ExperimentContext()
        design = CacheDesign.cd1().without_mechanisms()
        return [
            ctx.plan_run(spec, design)
            for spec in evaluation_workloads()[:count]
        ]

    def test_serial_streaming_matches_run_many(self):
        requests = self.make_requests()
        engine = Engine()
        streamed = {
            c.key: c.result for c in engine.as_completed(requests)
        }
        reference = Engine().run_many(requests)
        assert [streamed[r.key()].ipc for r in requests] == \
            [res.ipc for res in reference]

    def test_duplicates_yield_per_submission(self):
        requests = self.make_requests(1) * 3
        engine = Engine()
        completed = list(engine.as_completed(requests))
        assert len(completed) == 3
        assert engine.counters.executed == 1
        assert {c.index for c in completed} == {0, 1, 2}

    def test_parallel_streaming_records_results(self):
        requests = self.make_requests()
        with Engine(jobs=2) as engine:
            completed = list(engine.as_completed(requests))
            assert len(completed) == 3
            assert engine.counters.executed == 3
            # everything landed in the memo: a rerun is all hits
            again = list(engine.as_completed(requests))
            assert all(c.cached for c in again)

    def test_abandoned_iterator_keeps_finished_work(self):
        # Breaking out of the stream must not lose results that
        # already finished in the pool, and a follow-up batch must
        # still resolve every request correctly.
        requests = self.make_requests()
        reference = Engine().run_many(requests)
        with Engine(jobs=2) as engine:
            stream = engine.as_completed(requests)
            first = next(stream)
            stream.close()  # abandon: finally records finished futures
            assert first.key in engine._memo
            results = engine.run_many(requests)
            assert [r.ipc for r in results] == \
                [r.ipc for r in reference]
            # a further rerun replays entirely from the memo
            executed = engine.counters.executed
            engine.run_many(requests)
            assert engine.counters.executed == executed

    def test_abandon_at_cached_yield_keeps_finished_work(self):
        # hits are yielded inside the try/finally: breaking at the
        # first (cached) yield must still record pool work that
        # finished, and never re-execute it
        requests = self.make_requests()
        with Engine(jobs=2) as engine:
            engine.run(requests[0])  # one key cached up front
            executed0 = engine.counters.executed
            stream = engine.as_completed(requests)
            first = next(stream)
            assert first.cached
            stream.close()  # abandon during the hit-yield phase
            engine.run_many(requests)
            assert engine.counters.executed == \
                executed0 + len(requests) - 1

    def test_harvest_reuses_abandoned_inflight_work(self):
        # a future that finishes after the iterator was abandoned is
        # folded into the memo by the next batch, not re-executed
        from concurrent.futures import wait as futures_wait

        requests = self.make_requests(1)
        with Engine(jobs=2) as engine:
            key = requests[0].key()
            future = engine.pool.submit(key, [requests[0]])
            futures_wait([future])  # worker finished; nothing recorded
            engine.run_many(requests)
            # harvested: recorded once from the worker payload, and the
            # batch itself executed nothing on top
            assert engine.counters.executed == 1
            assert key in engine._memo

    def test_run_waits_on_inflight_future_instead_of_reexecuting(self):
        requests = self.make_requests(1)
        with Engine(jobs=2) as engine:
            engine.pool.submit(requests[0].key(), [requests[0]])
            result = engine.run(requests[0])
            assert result is not None
            assert engine.counters.executed == 1

    def test_interleaved_run_many_does_not_double_record(self):
        # run_many on a key the stream already submitted must not make
        # the generator record it a second time (executed over-count,
        # double store write)
        requests = self.make_requests()
        with Engine(jobs=2) as engine:
            stream = engine.as_completed(requests)
            first = next(stream)  # at least one key resolved
            engine.run_many(requests)  # reuses the in-flight futures
            list(stream)  # drain: must skip already-recorded keys
            assert engine.counters.executed == len(requests)
            assert first.key in engine._memo

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_slow_consumer_keeps_its_leases(self, jobs):
        # a consumer that pauses longer than the lease TTL between
        # pulls (at the cached hit too) must not see its own live
        # leases reclaimed as crashes
        import time

        from repro.engine import ExecutionPolicy

        requests = self.make_requests()
        with Engine(jobs=jobs, lease_ttl_s=0.05,
                    resilience=ExecutionPolicy(max_retries=0)) as engine:
            engine.run(requests[0])
            completed = []
            for item in engine.as_completed(requests):
                completed.append(item)
                time.sleep(0.2)
            assert [c.failure for c in completed] == [None] * 3
            assert engine.counters.retries == 0
            assert engine.counters.failures == 0
            assert engine.counters.executed == 3

    def test_abandoned_iterator_survives_closed_engine(self, tmp_path):
        # Generator finalization can run after Engine.close() shut the
        # store; the cleanup block must swallow that, not raise from
        # __del__.
        from repro.engine import ResultStore

        requests = self.make_requests()
        engine = Engine(store=ResultStore(tmp_path / "s.sqlite"), jobs=2)
        stream = engine.as_completed(requests)
        next(stream)
        engine.close()  # pool shuts down with wait=True; store closes
        stream.close()  # must not raise despite the closed store


# ---------------------------------------------------------------------------
# `repro exp` CLI
# ---------------------------------------------------------------------------

class TestExpCli:
    def write_spec(self, tmp_path, text=None):
        path = tmp_path / "exp.toml"
        path.write_text(text if text is not None else (
            'name = "cli-exp"\n'
            '[[sweeps]]\n'
            'workloads = ["ligra.BFS.0"]\n'
            'designs = ["cd1"]\n'
            'policies = ["none", "naive"]\n'
        ))
        return path

    def test_exp_run_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self.write_spec(tmp_path)
        store = str(tmp_path / "store.sqlite")
        assert main(["exp", "run", str(spec_path), "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "Sweep" in cold
        assert "engine:" in cold
        assert "0 simulations executed" not in cold
        assert main(["exp", "run", str(spec_path), "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "engine: 0 simulations executed" in warm
        assert warm.split("engine:")[0] == cold.split("engine:")[0]

    def test_exp_run_matches_sweep_store_entries(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self.write_spec(tmp_path)
        store = str(tmp_path / "store.sqlite")
        assert main(["exp", "run", str(spec_path), "--store", store]) == 0
        capsys.readouterr()
        # the equivalent CLI sweep replays entirely from that store
        assert main(["sweep", "--workloads", "ligra.BFS.0",
                     "--designs", "cd1", "--policies", "none,naive",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "engine: 0 simulations executed" in out

    def test_exp_run_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["exp", "run", str(tmp_path / "nope.toml"),
                     "--no-store"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_exp_run_empty_pool_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(
            tmp_path,
            'name = "empty-pool"\n'
            '[[sweeps]]\nworkloads = "pool:0"\npolicies = ["none"]\n',
        )
        assert main(["exp", "run", str(path), "--no-store"]) == 2
        assert "at least one workload" in capsys.readouterr().err

    def test_exp_run_invalid_spec(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(
            tmp_path,
            'name = "bad"\n[[runs]]\nworkload = "no.such"\n',
        )
        assert main(["exp", "run", str(path), "--no-store"]) == 2
        assert "no workload named" in capsys.readouterr().err

    def test_exp_validate(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self.write_spec(tmp_path)
        assert main(["exp", "validate", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "spec OK" in out
        assert "content key:" in out

    def test_exp_validate_bad_toml(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(tmp_path, "= broken =\n")
        assert main(["exp", "validate", str(path)]) == 2
        assert "invalid TOML" in capsys.readouterr().err
