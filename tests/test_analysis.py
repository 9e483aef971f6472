"""Invariant linter: corpus, suppressions, reporters, CLI, and the
clean-tree guarantee (``repro check src`` must exit 0)."""

import json
import pathlib
import re

import pytest

from repro.analysis import (
    JSON_SCHEMA_VERSION,
    Finding,
    LintRule,
    ModuleIndex,
    apply_suppressions,
    available_rules,
    lint_paths,
    lint_source,
)
from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
CASES = REPO / "tests" / "analysis_cases"

EXPECT_RE = re.compile(r"#\s*expect:\s*([a-z-]+)")

ALL_RULES = (
    "backend-transaction-discipline",
    "fork-state-hygiene",
    "key-purity",
    "no-bare-except",
    "no-wallclock-nondeterminism",
    "registry-schema-sync",
)


def expected_findings(path: pathlib.Path):
    """The ``# expect: <rule>`` markers a fixture declares."""
    out = set()
    for lineno, line in enumerate(
            path.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if match:
            out.add((match.group(1), lineno))
    return out


class TestCorpus:
    """Every fixture is flagged exactly as its markers declare."""

    def test_registry_exposes_all_builtin_rules(self):
        assert set(available_rules()) == set(ALL_RULES)

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CASES.glob("*_violation.py")))
    def test_violation_fixture_flagged_exactly(self, name):
        path = CASES / name
        expected = expected_findings(path)
        assert expected, f"{name} declares no expect markers"
        got = {(f.rule, f.line) for f in lint_paths([path]).findings}
        assert got == expected

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CASES.glob("*_clean.py")))
    def test_clean_fixture_has_no_findings(self, name):
        run = lint_paths([CASES / name])
        assert run.findings == []

    def test_every_rule_has_positive_and_clean_fixture(self):
        covered = set()
        for path in CASES.glob("*_violation.py"):
            covered.update(rule for rule, _ in expected_findings(path))
        assert covered == set(ALL_RULES)
        assert len(list(CASES.glob("*_clean.py"))) >= len(ALL_RULES)


class TestSuppressions:
    def test_suppressed_fixture_is_clean_but_counted(self):
        run = lint_paths([CASES / "suppressed.py"])
        assert run.findings == []
        assert run.suppressed == 2

    def test_inline_suppression(self):
        src = ("try:\n    pass\n"
               "except:  # repro: allow(no-bare-except)\n    pass\n")
        assert lint_source(src) == []

    def test_comment_above_suppression(self):
        src = ("try:\n    pass\n"
               "# repro: allow(no-bare-except)\nexcept:\n    pass\n")
        assert lint_source(src) == []

    def test_code_line_above_does_not_suppress_next_line(self):
        # The allow comment sits on the `try:` line, so it covers that
        # line only — the handler below is still flagged.
        src = ("try:  # repro: allow(no-bare-except)\n    pass\n"
               "except:\n    pass\n")
        assert [f.rule for f in lint_source(src)] == ["no-bare-except"]

    def test_wildcard_suppression(self):
        src = ("try:\n    pass\n"
               "except:  # repro: allow(*)\n    pass\n")
        assert lint_source(src) == []

    def test_unrelated_rule_suppression_does_not_hide(self):
        src = ("try:\n    pass\n"
               "except:  # repro: allow(key-purity)\n    pass\n")
        assert [f.rule for f in lint_source(src)] == ["no-bare-except"]


class TestRuleSemantics:
    def test_wallclock_flagged_anywhere_in_content_keyed_module(self):
        src = "import time\n\ndef log_now():\n    return time.time()\n"
        assert lint_source(src) == []  # generic module: off key path
        findings = lint_source(src, name="src/repro/engine/jobs.py")
        assert [f.rule for f in findings] == ["no-wallclock-nondeterminism"]

    def test_seeded_random_is_fine_on_key_path(self):
        src = ("import random\n\n"
               "def content_key(seed):\n"
               "    return random.Random(seed).random()\n")
        assert lint_source(src) == []

    def test_from_import_alias_resolution(self):
        src = ("from time import time\n\n"
               "def _now():\n    return time()\n\n"
               "def content_key(spec):\n    return _now()\n")
        findings = lint_source(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("no-wallclock-nondeterminism", 4)]

    def test_key_purity_env_via_from_import(self):
        src = ("from os import environ\n\n"
               "def fingerprint(spec):\n"
               "    return spec + environ.get('HOST', '')\n")
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["key-purity"]

    def test_transaction_block_blesses_connection(self):
        src = ("def put(backend, key):\n"
               "    with backend.transaction() as conn:\n"
               "        conn.execute('INSERT INTO t VALUES (?)', (key,))\n")
        assert lint_source(src) == []

    def test_request_execute_is_not_a_connection(self):
        src = ("def run(request):\n    return request.execute()\n")
        assert lint_source(src) == []

    def test_backend_module_itself_is_exempt(self):
        src = ("import sqlite3\n\n"
               "def connect(path):\n"
               "    return sqlite3.connect(path)\n")
        assert lint_source(src, name="src/repro/engine/backend.py") == []
        assert lint_source(src, name="src/repro/other.py") != []

    def test_upper_case_registry_is_exempt_from_fork_state(self):
        src = ("FACTORIES = {}\n\n"
               "def register(name, factory):\n"
               "    FACTORIES[name] = factory\n")
        assert lint_source(src) == []

    def test_exception_handler_with_binding_is_fine(self):
        src = ("def f(log):\n    try:\n        g()\n"
               "    except Exception as exc:\n"
               "        log.append(exc)\n")
        assert lint_source(src) == []


class TestDriver:
    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rules"):
            lint_source("x = 1\n", rule_ids=["bogus"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_unparseable_file_is_a_parse_error_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        run = lint_paths([bad])
        assert [f.rule for f in run.findings] == ["parse-error"]

    def test_rule_selection_restricts_findings(self):
        src = ("import sqlite3\n\ntry:\n    pass\nexcept:\n    pass\n"
               "conn = sqlite3.connect('x.db')\n")
        only = lint_source(src, rule_ids=["no-bare-except"])
        assert {f.rule for f in only} == {"no-bare-except"}

    def test_findings_sorted_by_location(self):
        run = lint_paths([CASES / "backend_violation.py",
                          CASES / "bare_except_violation.py"])
        locations = [(f.path, f.line) for f in run.findings]
        assert locations == sorted(locations)

    def test_apply_suppressions_round_trip(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        run = lint_paths([target], root=tmp_path)
        assert len(run.findings) == 1
        changed = apply_suppressions(run.findings, root=tmp_path)
        assert changed == {"mod.py": 1}
        assert "# repro: allow(no-bare-except)" in target.read_text()
        after = lint_paths([target], root=tmp_path)
        assert after.findings == []
        assert after.suppressed == 1

    def test_apply_suppressions_merges_existing_comment(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "try:\n    pass\n"
            "except:  # repro: allow(key-purity)\n    pass\n")
        run = lint_paths([target], root=tmp_path)
        apply_suppressions(run.findings, root=tmp_path)
        line = target.read_text().splitlines()[2]
        assert "# repro: allow(key-purity, no-bare-except)" in line

    def test_custom_rule_via_registry(self):
        from repro.api.registry import register_lint_rule

        @register_lint_rule("no-todo-test-rule")
        class NoTodo(LintRule):
            id = "no-todo-test-rule"

            def check_module(self, module):
                for lineno, line in enumerate(module.lines, start=1):
                    if "TODO" in line:
                        yield self.finding(module, lineno, "todo found")

        findings = lint_source("x = 1  # TODO later\n",
                               rule_ids=["no-todo-test-rule"])
        assert [f.rule for f in findings] == ["no-todo-test-rule"]


class TestModuleIndex:
    def test_alias_resolution(self):
        idx = ModuleIndex(
            "import numpy as np\nfrom os import environ\n", "m.py")
        assert idx.aliases["np"] == "numpy"
        assert idx.aliases["environ"] == "os.environ"

    def test_reachability_is_transitive(self):
        idx = ModuleIndex(
            "def a():\n    return b()\n\n"
            "def b():\n    return c()\n\n"
            "def c():\n    return 1\n\n"
            "def unrelated():\n    return 2\n", "m.py")
        assert idx.reachable_functions({"a"}) == {"a", "b", "c"}


class TestReporters:
    def test_json_schema(self, capsys):
        code = main(["check", str(CASES / "backend_violation.py"),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == JSON_SCHEMA_VERSION
        assert set(payload) == {"schema", "rules", "files_checked",
                                "suppressed", "counts", "findings",
                                "summary"}
        assert payload["summary"] == {"total": 2, "ok": False}
        assert payload["counts"] == {"backend-transaction-discipline": 2}
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule",
                                    "message"}

    def test_text_format_is_file_line_rule(self, capsys):
        code = main(["check", str(CASES / "bare_except_violation.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert re.search(
            r"bare_except_violation\.py:8: no-bare-except: ", out)
        assert "2 findings" in out

    def test_finding_format(self):
        finding = Finding(path="a.py", line=3, rule="r", message="m")
        assert finding.format() == "a.py:3: r: m"


class TestCheckCLI:
    def test_clean_path_exits_zero(self, capsys):
        assert main(["check", str(CASES / "backend_clean.py")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self):
        assert main(["check", str(CASES / "fork_state_violation.py")]) == 1

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["check", "--rule", "bogus",
                     str(CASES / "backend_clean.py")])
        assert code == 2
        assert "unknown lint rules" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_fix_suppressions_flag(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("try:\n    pass\nexcept:\n    pass\n")
        code = main(["check", str(target), "--fix-suppressions"])
        assert code == 0  # post-suppression re-lint is clean
        assert "# repro: allow(no-bare-except)" in target.read_text()

    def test_list_mentions_lint_rules(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lint rules (repro check):" in out
        for rule in ALL_RULES:
            assert rule in out


class TestTreeIsClean:
    """The acceptance invariant: the shipped tree lints clean."""

    def test_src_has_no_findings(self):
        run = lint_paths([REPO / "src"], root=REPO)
        assert run.findings == []

    def test_injected_violation_is_caught(self, tmp_path):
        # The CI canary in miniature: a violation dropped into a copy
        # of the tree must fail the check.
        canary = tmp_path / "canary.py"
        canary.write_text(
            "import sqlite3\n\n"
            "def rogue(path):\n"
            "    conn = sqlite3.connect(path)\n"
            "    return conn.execute('SELECT 1').fetchone()\n")
        code = main(["check", str(REPO / "src"), str(canary)])
        assert code == 1


class TestReadPathGuards:
    """Satellite: status/summary on bad files exit 2, one line."""

    def test_queue_status_missing_file(self, tmp_path, capsys):
        code = main(["queue", "status", str(tmp_path / "absent.sqlite")])
        assert code == 2
        err = capsys.readouterr().err
        assert "not found" in err and "Traceback" not in err

    def test_queue_status_foreign_file(self, tmp_path, capsys):
        foreign = tmp_path / "notes.txt"
        foreign.write_text("not a database")
        code = main(["queue", "status", str(foreign)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a job queue" in err
        # the guard must not have clobbered or created anything
        assert foreign.read_text() == "not a database"

    def test_obs_summary_garbage_single_line(self, tmp_path, capsys):
        garbage = tmp_path / "notes.jsonl"
        garbage.write_text("this is not a journal\n")
        code = main(["obs", "summary", str(garbage)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_obs_summary_binary_file(self, tmp_path, capsys):
        binary = tmp_path / "blob.bin"
        binary.write_bytes(b"\xff\xfe\x00\x01 not utf-8")
        code = main(["obs", "summary", str(binary)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a JSONL journal" in err and "Traceback" not in err

    def test_torn_final_line_still_tolerated(self, tmp_path):
        from repro.obs.journal import read_journal

        journal = tmp_path / "run.jsonl"
        journal.write_text(
            '{"ts": 1.0, "type": "start", "schema": 1, "pid": 7}\n'
            '{"ts": 2.0, "type": "req')  # torn mid-write
        events = [event for _, event in read_journal(journal)]
        assert len(events) == 1
        assert events[0]["type"] == "start"
