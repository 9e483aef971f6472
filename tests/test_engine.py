"""Tests for the parallel experiment engine and its result store."""

import copy
import json
import pickle
import zlib

import pytest

from repro.core.config import AthenaConfig
from repro.engine import Engine, MixRequest, ResultStore, RunRequest
from repro.engine import jobs
from repro.engine.jobs import decode_result, encode_result
from repro.engine import store as store_module
from repro.engine.store import StoreDecodeError
from repro.experiments.configs import CacheDesign
from repro.experiments.figures import (fig02_naive_vs_staticbest, fig07_cd1,
                                       fig15_fourcore)
from repro.experiments.runner import ExperimentContext
from repro.policies.base import CoordinationAction
from repro.sim.region import MultiCoreResult, SimulationResult
from repro.sim.stats import EpochTelemetry, SimStats
from repro.workloads.mixes import build_mixes
from repro.workloads.suites import ReproScale, find_workload

TINY = ReproScale("test", trace_length=3000, workloads_per_figure=4,
                  epoch_length=150, policy_seeds=1)


def _request(policy="naive", workload="ligra.BFS.0", **overrides):
    defaults = dict(
        spec=find_workload(workload),
        trace_length=3000,
        design=CacheDesign.cd1(),
        policy_name=policy,
        epoch_length=150,
        warmup_fraction=0.35,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


def _payload(result) -> dict:
    return json.loads(json.dumps(encode_result(result)))


def _count_builds(monkeypatch,
                  classes=(EpochTelemetry, CoordinationAction)) -> list:
    """Record each instance of ``classes`` (by default, each
    EpochTelemetry/CoordinationAction) the codec builds."""
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    for cls in classes:
        monkeypatch.setattr(jobs, cls.__name__, counting(cls))
    return built


def _count_history_parses(monkeypatch) -> list:
    """Record each JSON document, text or bytes, parsed that holds a
    run's epoch history."""
    parsed = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        document = text if isinstance(text, str) else bytes(text).decode()
        if '"epochs":' in document:
            parsed.append(len(document))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return parsed


def _count_history_inflates(monkeypatch) -> list:
    """Record each stored run history the codec inflates."""
    inflated = []
    load = jobs.load_history

    def counting(data):
        inflated.append(len(data))
        return load(data)

    monkeypatch.setattr(jobs, "load_history", counting)
    return inflated


def _row(store: ResultStore, key: str):
    """A row's stored payload: bytes for a result, text otherwise."""
    (row,) = store._conn.execute(
        "SELECT payload FROM results WHERE key = ?", (key,)).fetchone()
    return row


def _write_row(store: ResultStore, key: str, row) -> None:
    store._conn.execute(
        "INSERT OR REPLACE INTO results VALUES (?, ?, 0.0)", (key, row))
    store._conn.commit()


def _split_row(payload: dict, crc_field: str, history: bytes) -> bytes:
    """A run row with ``payload``'s summary, ``history`` stored after it
    and ``history``'s CRC-32 under ``crc_field``."""
    summary = {name: value for name, value in payload.items()
               if name not in ("epochs", "actions")}
    summary[crc_field] = zlib.crc32(history)
    return json.dumps(summary, separators=(",", ":")).encode() \
        + b"\n" + history


def _plain_history(payload: dict) -> bytes:
    return json.dumps({"epochs": payload["epochs"],
                       "actions": payload["actions"]},
                      separators=(",", ":")).encode()


def _with_part(row: bytes, index: int, part: bytes) -> bytes:
    """Result row ``row`` with its part ``index`` (1: the counters, 2: a
    run's history) replaced by ``part`` under a matching CRC-32."""
    parts = row.split(b"\n", 2)
    head = json.loads(parts[0])
    head[("counters_crc", "history_crc")[index - 1]] = zlib.crc32(part)
    parts[0] = json.dumps(head, separators=(",", ":")).encode()
    parts[index] = part
    return b"\n".join(parts)


#: a result's row in each layout that older checkouts wrote
_OLDER_LAYOUTS = {
    "one-document": lambda payload: json.dumps(payload,
                                               separators=(",", ":")),
    "plain-history": lambda payload: _split_row(
        payload, "history_crc", _plain_history(payload)),
    "summary-plus-zlib": lambda payload: _split_row(
        payload, "history_zcrc", zlib.compress(_plain_history(payload), 1)),
}


class TestRunRequestKeys:
    def test_key_is_stable(self):
        assert _request().key() == _request().key()

    def test_key_distinguishes_parameters(self):
        base = _request()
        variants = [
            _request(policy="mab"),
            _request(workload="ligra.PageRank.1"),
            _request(trace_length=6000),
            _request(design=CacheDesign.cd2()),
            _request(epoch_length=300),
            _request(warmup_fraction=0.2),
            _request(policy="athena"),
            _request(policy="athena",
                     athena_config=AthenaConfig(seed=1)),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_design_name_is_cosmetic(self):
        from dataclasses import replace

        d = CacheDesign.cd1()
        renamed = replace(d, name="CD1-some-other-label")
        assert _request(design=d).key() == _request(design=renamed).key()

    def test_athena_default_config_is_canonical(self):
        explicit = _request(policy="athena",
                            athena_config=AthenaConfig())
        implicit = _request(policy="athena")
        assert explicit.key() == implicit.key()


class TestResultCodec:
    def test_simulation_result_roundtrip(self):
        request = _request(policy="athena")
        result = request.execute()
        clone = decode_result(
            json.loads(json.dumps(encode_result(result)))
        )
        assert clone.workload == result.workload
        assert clone.ipc == result.ipc
        assert clone.instructions == result.instructions
        assert clone.cycles == result.cycles
        assert clone.stats == result.stats
        assert clone.epochs == result.epochs
        assert clone.actions == result.actions
        assert clone.action_distribution() == result.action_distribution()

    def test_mix_result_roundtrip(self):
        mix = build_mixes(2, 1)[0]
        request = MixRequest(
            workloads=tuple(mix.workloads),
            trace_length=1500,
            design=CacheDesign.cd1(),
            policy_name="naive",
            epoch_length=150,
        )
        result = request.execute()
        clone = decode_result(
            json.loads(json.dumps(encode_result(result)))
        )
        assert [c.workload for c in clone.cores] == \
            [c.workload for c in result.cores]
        assert [c.ipc for c in clone.cores] == \
            [c.ipc for c in result.cores]
        baseline = request.execute()
        assert clone.weighted_speedup(baseline) == \
            result.weighted_speedup(baseline)

    def test_decoded_actions_share_instances(self):
        request = _request(policy="athena")
        result = request.execute()
        payload = json.loads(json.dumps(encode_result(result)))
        clone = decode_result(payload)
        assert clone.actions == result.actions
        assert clone.epochs == result.epochs
        assert clone.action_distribution() == result.action_distribution()
        distinct = {}
        for action in clone.actions:
            assert distinct.setdefault(action, action) is action
        assert len(distinct) < len(clone.actions)

        del payload["actions"][-1]["ocp_enabled"]
        with pytest.raises(StoreDecodeError):
            decode_result(payload)

    def test_decode_rejects_garbage(self):
        with pytest.raises(StoreDecodeError):
            decode_result({"kind": "run"})
        with pytest.raises(StoreDecodeError):
            decode_result({"schema": -1, "kind": "run"})

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["epochs"][3].update(bogus=1),
        lambda p: p["epochs"].__setitem__(2, [1, 2]),
        lambda p: p["actions"][5].pop("degree_fraction"),
        lambda p: p["actions"][0].__setitem__("ocp_enabled", [True]),
        lambda p: p.__setitem__("epochs", {"0": {}}),
        lambda p: p.__setitem__("epochs", None),
    ], ids=["unknown-epoch-key", "epoch-not-a-dict", "missing-action-key",
            "unhashable-action", "epochs-a-dict", "epochs-null"])
    def test_decode_validates_rows_up_front(self, corrupt):
        payload = _payload(_request(policy="athena").execute())
        corrupt(payload)
        with pytest.raises(StoreDecodeError):
            decode_result(payload)

    def test_reencoding_a_decoded_payload_is_byte_identical(self):
        mix = build_mixes(2, 1)[0]
        results = [
            _request(policy="athena").execute(),
            MixRequest(workloads=tuple(mix.workloads), trace_length=1500,
                       design=CacheDesign.cd1(), policy_name="naive",
                       epoch_length=150).execute(),
        ]
        for result in results:
            payload = _payload(result)
            assert json.dumps(encode_result(decode_result(payload))) == \
                json.dumps(payload)


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}
        assert "k" in store
        assert len(store) == 1
        store.delete("k")
        assert store.get("k") is None

    def test_unparseable_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store._conn.execute(
            "INSERT INTO results VALUES ('bad', '{truncated', 0.0)"
        )
        store._conn.commit()
        assert store.get("bad") is None
        assert len(store) == 0  # the corrupt row was evicted

    def test_corrupt_database_file_is_recreated(self, tmp_path):
        path = tmp_path / "s.sqlite"
        # A truncated store: right header, garbage body.
        path.write_bytes(b"SQLite format 3\x00" + b"\xde\xad\xbe\xef" * 8)
        store = ResultStore(path)
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}

    def test_refuses_to_overwrite_foreign_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("important notes that are not a sqlite database")
        with pytest.raises(ValueError, match="refusing to overwrite"):
            ResultStore(path)
        assert path.read_text().startswith("important notes")

    def test_two_connections_share_entries(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as writer, ResultStore(path) as reader:
            writer.put("k", {"a": 1})
            assert reader.get("k") == {"a": 1}


class TestSplitRows:
    """A run row is its head, its counters and its zlib-compressed
    history; a mix row is its head and its per-core counters.  The warm
    lookup parses only the head."""

    def _mix_request(self) -> MixRequest:
        mix = build_mixes(2, 1)[0]
        return MixRequest(
            workloads=tuple(mix.workloads), trace_length=1500,
            design=CacheDesign.cd1(), policy_name="naive",
            epoch_length=150)

    def _mix_payload(self) -> dict:
        return _payload(self._mix_request().execute())

    def _payloads(self) -> dict:
        return {"run": _payload(_request(policy="athena").execute()),
                "mix": self._mix_payload()}

    def test_get_returns_exactly_the_encoded_payload(self, tmp_path):
        run = _payload(_request(policy="athena").execute())
        mix = self._mix_payload()
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("run", run)
            store.put("mix", mix)
            for key, payload in (("run", run), ("mix", mix)):
                got = store.get(key)
                assert got == payload
                assert json.dumps(got) == json.dumps(payload)
            head, counters, history = _row(store, "run").split(b"\n", 2)
            assert b'"stats"' not in head and b'"epochs"' not in head
            assert json.loads(counters) == run["stats"]
            assert json.loads(zlib.decompress(history)) == {
                "epochs": run["epochs"], "actions": run["actions"]}
            head, counters = _row(store, "mix").split(b"\n")
            assert b'"stats"' not in head
            assert json.loads(counters) == \
                [core["stats"] for core in mix["cores"]]
            summary = store.get("mix", summary=True)
            assert isinstance(summary[store_module.COUNTERS], memoryview)
            assert decode_result(summary) == decode_result(mix)

    def test_summary_read_leaves_the_history_unparsed(self, tmp_path,
                                                      monkeypatch):
        result = _request(policy="athena").execute()
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", encode_result(result))
            parsed = _count_history_parses(monkeypatch)
            clone = decode_result(store.get("k", summary=True))
            assert clone.ipc == result.ipc and clone.stats == result.stats
            assert "k" in store
            assert parsed == []
            assert clone.epochs == result.epochs
            assert clone.actions == result.actions
            assert len(parsed) == 1

    @pytest.mark.parametrize("kind", ["run", "mix"])
    def test_summary_read_builds_counters_on_first_read(self, tmp_path,
                                                        monkeypatch, kind):
        payload = self._payloads()[kind]
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", payload)
            built = _count_builds(monkeypatch, (SimStats,))
            clone = decode_result(store.get("k", summary=True))
        cores = clone.cores if kind == "mix" else [clone]
        wanted = payload["cores"] if kind == "mix" else [payload]
        assert [core.ipc for core in cores] == \
            [want["instructions"] / want["cycles"] for want in wanted]
        assert built == []
        for count, (core, want) in enumerate(zip(cores, wanted), 1):
            assert core.stats == SimStats(**want["stats"])
            assert core.stats is core.stats
            # a run turns plain once its history is read too
            assert (type(core) is SimulationResult) == (kind == "mix")
            assert core.epochs is core.epochs
            assert type(core) is SimulationResult
            assert built == ["SimStats"] * count

    @pytest.mark.parametrize("kind,part", [
        ("run", 1), ("run", 2), ("mix", 1)],
        ids=["run-counters", "run-history", "mix-counters"])
    def test_altered_part_is_a_miss_and_executes_once(self, tmp_path,
                                                       kind, part):
        request = _request(policy="athena") if kind == "run" \
            else self._mix_request()
        path = tmp_path / "s.sqlite"
        with Engine(store=ResultStore(path)) as engine:
            expected = engine.run(request)
        key = request.key()
        with ResultStore(path) as store:
            altered = bytearray(_row(store, key))
            start = 0
            for _ in range(part):
                start = altered.index(b"\n", start) + 1
            altered[start + 10] ^= 0x01
            altered = bytes(altered)
            _write_row(store, key, altered)
            assert key not in store
            assert len(store) == 0  # the damaged row was evicted
            _write_row(store, key, altered)
        with Engine(store=ResultStore(path)) as engine:
            recomputed = engine.run(request)
            assert engine.counters.executed == 1
            assert engine.counters.store_hits == 0
            assert recomputed == expected
            assert engine.store.get(key) == encode_result(expected)

    @pytest.mark.parametrize("kind,layout", [
        ("run", "one-document"), ("run", "plain-history"),
        ("run", "summary-plus-zlib"), ("mix", "one-document")])
    def test_older_layout_is_a_miss_that_executes_once(self, tmp_path,
                                                        kind, layout):
        request = _request(policy="athena") if kind == "run" \
            else self._mix_request()
        payload = _payload(request.execute())
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            _write_row(store, request.key(), _OLDER_LAYOUTS[layout](payload))
        for executed in (1, 0):
            with Engine(store=ResultStore(path)) as engine:
                result = engine.run(request)
                assert engine.counters.executed == executed
                assert engine.counters.store_hits == 1 - executed
                assert encode_result(result) == payload
                assert engine.store.get(request.key()) == payload

    def test_stored_athena_row_is_under_a_quarter_of_its_history(
            self, tmp_path):
        payload = _payload(_request(policy="athena").execute())
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", payload)
            assert len(_row(store, "k")) < len(_plain_history(payload)) / 4
            assert store.mean_row_bytes() == len(_row(store, "k"))

    @pytest.mark.parametrize("kind", ["run", "mix"])
    def test_lazy_result_behaves_like_an_eager_one(self, tmp_path,
                                                   monkeypatch, kind):
        payload = self._payloads()[kind]
        eager = decode_result(payload)
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", payload)

            def lazy():
                return decode_result(store.get("k", summary=True))

            assert lazy() == eager and eager == lazy()
            assert not lazy() != eager
            assert lazy() == lazy()
            assert repr(lazy()) == repr(eager)
            for clone in (pickle.loads(pickle.dumps(lazy())),
                          copy.deepcopy(lazy()), copy.copy(lazy())):
                assert clone == eager
                assert type(clone) is type(eager)
                cores = clone.cores if kind == "mix" else [clone]
                assert {type(core) for core in cores} == {SimulationResult}
            assert pickle.loads(pickle.dumps(eager)) == \
                pickle.loads(pickle.dumps(lazy()))
            inflates = _count_history_inflates(monkeypatch)
            eager_cores = eager.cores if kind == "mix" else [eager]
            for order in (("stats", "epochs", "actions"),
                          ("epochs", "stats", "actions"),
                          ("actions", "epochs", "stats")):
                clone = lazy()
                cores = clone.cores if kind == "mix" else [clone]
                for core, want in zip(cores, eager_cores):
                    for name in order:
                        assert getattr(core, name) == getattr(want, name)
                    assert type(core) is SimulationResult
                    assert core == want
            # one inflate of a run's history serves its epochs and actions
            assert len(inflates) == (3 if kind == "run" else 0)
        assert type(eager) is (MultiCoreResult if kind == "mix"
                               else SimulationResult)

    def test_results_hold_plain_lists_on_every_path(self, tmp_path):
        request = _request(policy="athena")
        path = tmp_path / "s.sqlite"
        with Engine(store=ResultStore(path)) as engine:
            executed = engine.run(request)
            assert engine.counters.executed == 1
        with Engine(store=ResultStore(path)) as engine:
            replayed = engine.run(request)
            assert engine.counters.store_hits == 1
        for result in (request.execute(), executed, replayed):
            assert type(result.epochs) is list
            assert type(result.actions) is list
            assert result.stats == executed.stats
            assert type(result) is SimulationResult

    @pytest.mark.parametrize("kind", ["run", "mix"])
    def test_unknown_counter_raises_on_first_read(self, tmp_path, kind):
        payload = self._payloads()[kind]
        (payload["cores"][-1] if kind == "mix" else payload)["stats"][
            "bogus"] = 1
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", payload)  # the CRC covers the bad counters
            clone = decode_result(store.get("k", summary=True))
        core = clone.cores[-1] if kind == "mix" else clone
        assert core.ipc > 0
        with pytest.raises(StoreDecodeError, match="bogus"):
            core.stats
        with pytest.raises(StoreDecodeError):
            core.stats  # the row stays bad on a second read
        if kind == "mix":
            assert clone.cores[0].stats.instructions > 0
        with pytest.raises(StoreDecodeError):
            decode_result(payload)

    def test_counters_that_are_not_json_raise_on_first_read(self, tmp_path):
        payload = _payload(_request(policy="athena").execute())
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", payload)
            _write_row(store, "k", _with_part(_row(store, "k"), 1,
                                              b'{"instructions":'))
            clone = decode_result(store.get("k", summary=True))
            assert clone.ipc > 0
            with pytest.raises(StoreDecodeError) as raised:
                clone.stats
            assert isinstance(raised.value.__cause__, ValueError)
            assert store.get("k") is None  # a whole read is a miss

    def _write_non_zlib_history(self, store: ResultStore) -> None:
        payload = _payload(_request(policy="athena").execute())
        store.put("k", payload)
        _write_row(store, "k", _with_part(_row(store, "k"), 2,
                                          _plain_history(payload)))

    def test_history_that_is_not_zlib_is_a_miss(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            self._write_non_zlib_history(store)
            assert store.get("k") is None
            assert len(store) == 0  # the damaged row was evicted

    def test_history_that_is_not_zlib_raises_on_first_read(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            self._write_non_zlib_history(store)
            clone = decode_result(store.get("k", summary=True))
        assert clone.ipc > 0
        with pytest.raises(StoreDecodeError) as raised:
            clone.epochs[0]
        assert isinstance(raised.value.__cause__, ValueError)

    def test_unknown_epoch_key_raises_on_first_read(self, tmp_path):
        payload = _payload(_request(policy="athena").execute())
        payload["epochs"][3]["bogus"] = 1
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("k", payload)  # the CRC covers the bad history
            clone = decode_result(store.get("k", summary=True))
        assert clone.ipc > 0
        with pytest.raises(StoreDecodeError):
            list(clone.epochs)
        with pytest.raises(StoreDecodeError):
            len(clone.actions)


class TestDefaultStorePath:
    """Keys cover a request's inputs, not the code: each source tree
    gets its own default store."""

    def test_two_source_digests_give_two_paths(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        paths = []
        for digest in ("ab" * 32, "cd" * 32):
            monkeypatch.setattr(store_module, "_source_digest",
                                lambda digest=digest: digest)
            paths.append(store_module.default_store_path())
        assert paths == [tmp_path / "repro" / "results-abababababab.sqlite",
                         tmp_path / "repro" / "results-cdcdcdcdcdcd.sqlite"]

    def test_env_store_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "mine.sqlite"))
        monkeypatch.setattr(store_module, "_source_digest",
                            lambda: pytest.fail("digest computed"))
        assert store_module.default_store_path() == tmp_path / "mine.sqlite"


class TestEngine:
    def test_memo_store_execute_tiers(self, tmp_path):
        request = _request()
        with Engine(store=ResultStore(tmp_path / "s.sqlite")) as engine:
            first = engine.run(request)
            second = engine.run(request)
            assert second is first
            assert engine.counters.executed == 1
            assert engine.counters.memo_hits == 1
        with Engine(store=ResultStore(tmp_path / "s.sqlite")) as engine:
            replayed = engine.run(request)
            assert engine.counters.executed == 0
            assert engine.counters.store_hits == 1
            assert replayed.ipc == first.ipc
            assert replayed.stats == first.stats

    def test_corrupted_store_entry_is_recomputed(self, tmp_path):
        request = _request()
        store = ResultStore(tmp_path / "s.sqlite")
        with Engine(store=store) as engine:
            expected = engine.run(request)
            # Clobber the entry with a decodable-JSON but invalid payload.
            store.put(request.key(), {"schema": 999, "nonsense": True})
            engine2 = Engine(store=ResultStore(tmp_path / "s.sqlite"))
            recomputed = engine2.run(request)
            assert engine2.counters.executed == 1
            assert recomputed.ipc == expected.ipc

    def test_run_many_preserves_order_and_dedups(self):
        requests = [_request(), _request(policy="mab"), _request()]
        engine = Engine()
        results = engine.run_many(requests)
        assert engine.counters.executed == 2
        assert results[0] is results[2]
        assert results[0].ipc != results[1].ipc

    def test_run_many_parallel_matches_serial(self, tmp_path):
        requests = [
            _request(),
            _request(policy="mab"),
            _request(policy="athena"),
            _request(workload="spec06.mcf_like.0"),
        ]
        serial = Engine().run_many(requests)
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    jobs=2) as engine:
            parallel = engine.run_many(requests)
            assert engine.counters.executed == len(requests)
        for s, p in zip(serial, parallel):
            assert s.ipc == p.ipc
            assert s.stats == p.stats
            assert s.actions == p.actions

    def test_progress_callback_streams(self):
        seen = []
        engine = Engine()
        engine.run_many(
            [_request(), _request(policy="mab")],
            progress=lambda done, total, key: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_single_run_reports_no_progress(self):
        seen = []
        engine = Engine(progress=lambda *args: seen.append(args))
        engine.run(_request())
        assert seen == []


class TestFigureParallelism:
    """The acceptance property: parallel == serial, warm == zero runs."""

    def test_figure_parallel_bit_identical_and_warm(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        serial = fig02_naive_vs_staticbest(
            ExperimentContext(TINY)
        ).format_table()

        cold_engine = Engine(store=ResultStore(store_path), jobs=2)
        with cold_engine:
            cold = fig02_naive_vs_staticbest(
                ExperimentContext(TINY, engine=cold_engine)
            ).format_table()
            assert cold_engine.counters.executed > 0
        assert cold == serial

        warm_engine = Engine(store=ResultStore(store_path), jobs=2)
        with warm_engine:
            warm = fig02_naive_vs_staticbest(
                ExperimentContext(TINY, engine=warm_engine)
            ).format_table()
            assert warm_engine.counters.executed == 0
            assert warm_engine.counters.store_hits > 0
        assert warm == serial

    def test_warm_fig7_replay_builds_no_telemetry(self, tmp_path,
                                                  monkeypatch):
        store_path = tmp_path / "s.sqlite"
        scale = ReproScale("test", trace_length=1500,
                           workloads_per_figure=2, epoch_length=150)
        with Engine(store=ResultStore(store_path)) as engine:
            cold = fig07_cd1(ExperimentContext(scale, engine=engine))
        built = _count_builds(monkeypatch)
        parsed = _count_history_parses(monkeypatch)
        with Engine(store=ResultStore(store_path)) as engine:
            warm = fig07_cd1(ExperimentContext(scale, engine=engine))
            assert engine.counters.executed == 0
            assert engine.counters.store_hits > 0
        assert warm.format_table() == cold.format_table()
        assert built == []
        assert parsed == []

    def test_warm_fig7_replay_builds_no_counters_until_read(
            self, tmp_path, monkeypatch):
        store_path = tmp_path / "s.sqlite"
        with Engine(store=ResultStore(store_path)) as engine:
            cold = fig07_cd1(ExperimentContext(TINY, engine=engine))
            cold_results = dict(engine._memo)
        built = _count_builds(monkeypatch, (SimStats,))
        with Engine(store=ResultStore(store_path)) as engine:
            warm = fig07_cd1(ExperimentContext(TINY, engine=engine))
            assert engine.counters.executed == 0
            warm_results = dict(engine._memo)
        assert warm.format_table() == cold.format_table()
        assert built == []
        assert warm_results.keys() == cold_results.keys()
        for key, result in warm_results.items():
            assert result.stats == cold_results[key].stats
        assert len(built) == len(warm_results)

    def test_multicore_mix_goes_through_engine(self, tmp_path):
        mix = build_mixes(2, 1)[0]
        design = CacheDesign.cd1()
        store_path = tmp_path / "s.sqlite"
        scale = ReproScale("test", trace_length=1500,
                           workloads_per_figure=2, epoch_length=150)
        with Engine(store=ResultStore(store_path)) as engine:
            ctx = ExperimentContext(scale, engine=engine)
            cell = (mix, design, "naive")
            first = ctx.mixes([cell])[cell]
            assert engine.counters.executed == 1
        with Engine(store=ResultStore(store_path)) as engine:
            ctx = ExperimentContext(scale, engine=engine)
            replayed = ctx.mixes([cell])[cell]
            assert engine.counters.executed == 0
            assert [c.ipc for c in replayed.cores] == \
                [c.ipc for c in first.cores]


def _count_resolve_batches(monkeypatch):
    """Record every ``Engine._resolve_misses`` call (one per batch that
    executes anything)."""
    batches = []
    resolve = Engine._resolve_misses

    def counting(self, pairs, progress):
        batches.append(len(pairs))
        return resolve(self, pairs, progress)

    monkeypatch.setattr(Engine, "_resolve_misses", counting)
    return batches


class TestBatchEvaluators:
    def test_cold_fig7_resolves_one_batch(self, monkeypatch):
        batches = _count_resolve_batches(monkeypatch)
        with Engine() as engine:
            fig07_cd1(ExperimentContext(TINY, engine=engine))
            assert batches == [engine.counters.executed]

    def test_cold_fig15_resolves_one_batch(self, monkeypatch):
        batches = _count_resolve_batches(monkeypatch)
        with Engine() as engine:
            fig15_fourcore(ExperimentContext(TINY, engine=engine),
                           mixes_per_category=1)
            assert batches == [15] == [engine.counters.executed]

    def test_warm_fig7_hashes_each_request_once(self, tmp_path,
                                                monkeypatch):
        store_path = tmp_path / "s.sqlite"
        with Engine(store=ResultStore(store_path)) as engine:
            cold = fig07_cd1(ExperimentContext(TINY, engine=engine))
        digested = []
        digest = jobs._digest

        def counting(payload):
            digested.append(digest(payload))
            return digested[-1]

        monkeypatch.setattr(jobs, "_digest", counting)
        with Engine(store=ResultStore(store_path)) as engine:
            warm = fig07_cd1(ExperimentContext(TINY, engine=engine))
            assert engine.counters.executed == 0
        assert warm.format_table() == cold.format_table()
        assert len(digested) == len(set(digested)) == \
            engine.counters.store_hits

    def test_renamed_design_executes_once(self):
        ctx = ExperimentContext(TINY)
        spec = find_workload("ligra.BFS.0")
        design = CacheDesign.cd1()
        pf_only = design.only_prefetchers()
        (combo,) = [
            c for c in ctx.static_combinations(design)
            if c.prefetcher_names == pf_only.prefetcher_names
            and c.ocp_name is None
        ]
        assert combo.name != pf_only.name
        first = ctx.runs([(spec, pf_only)])[spec, pf_only]
        assert ctx.runs([(spec, combo)])[spec, combo] is first
        assert ctx.engine.counters.executed == 1


class TestMakePolicyKwargs:
    def test_unsupported_kwargs_raise(self):
        from repro.policies import make_policy

        with pytest.raises(ValueError, match="unsupported"):
            make_policy("naive", seed=1)
        with pytest.raises(ValueError, match="unsupported"):
            make_policy("hpac", wibble=2)
        with pytest.raises(ValueError, match="accepts no options"):
            make_policy("none", seed=1)
        with pytest.raises(ValueError, match="unsupported athena"):
            make_policy("athena", wibble=2)

    def test_supported_kwargs_are_forwarded(self):
        from repro.policies import make_policy

        athena = make_policy("athena", seed=7, alpha=0.4)
        assert athena.config.seed == 7
        assert athena.config.alpha == 0.4
        mab = make_policy("mab", discount=0.9)
        assert mab.discount == 0.9
