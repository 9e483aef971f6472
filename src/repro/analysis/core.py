"""Lint framework core: findings, the rule protocol, and the driver.

The analysis subsystem proves repo invariants no test can exhaustively
check — key purity, replay determinism, transaction discipline — by
static inspection at every commit (the CI ``check`` job).  This module
is the machinery; the invariants themselves live in
:mod:`repro.analysis.rules`.

Rules are components: each is a class registered with the unified
:class:`~repro.api.registry.ComponentRegistry` under the ``lint_rule``
kind via :func:`~repro.api.registry.register_lint_rule` — the same
plugin idiom policies and trace adapters use — so plugins can ship
repo-specific rules without editing this package, and ``repro list``
enumerates them like any other component.

A rule sees modules through the shared :class:`ModuleIndex` and yields
:class:`Finding` records from :meth:`LintRule.check_module` (called per
file) and/or :meth:`LintRule.check_project` (called once per run, for
whole-repo invariants such as registry-schema sync).  The driver
(:func:`lint_paths` / :func:`lint_source`) applies per-line
``# repro: allow(<rule>)`` suppressions and returns the surviving
findings sorted by location.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .visitor import SUPPRESS_RE, ModuleIndex

PathLike = Union[str, pathlib.Path]

#: rule id attached to findings for files that do not parse at all.
PARSE_ERROR_RULE = "parse-error"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str
    col: int = 0

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class LintRule:
    """Base class for invariant-linter rules.

    Subclasses set :attr:`id`/:attr:`description` and implement
    :meth:`check_module` (per file) and/or :meth:`check_project` (once
    per run, over every module).  Register with
    ``@register_lint_rule("<id>")`` so the driver and ``repro check
    --rule`` can find them by name.
    """

    id: str = ""
    description: str = ""

    def check_module(self, module: ModuleIndex) -> Iterable[Finding]:
        return ()

    def check_project(
        self, modules: Sequence[ModuleIndex]
    ) -> Iterable[Finding]:
        return ()

    def finding(self, module: Optional[ModuleIndex], line: int,
                message: str, col: int = 0,
                path: Optional[str] = None) -> Finding:
        """A :class:`Finding` attributed to this rule."""
        return Finding(
            path=module.rel_path if module is not None else (path or "?"),
            line=line, col=col, rule=self.id, message=message,
        )


def available_rules() -> Dict[str, LintRule]:
    """id → instance for every registered ``lint_rule`` component."""
    from ..api.registry import registry

    from . import rules as _builtin  # noqa: F401  (registers built-ins)

    return {
        name: registry.create("lint_rule", name)
        for name in registry.names("lint_rule")
    }


def resolve_rules(
    selected: Optional[Sequence[str]] = None,
) -> List[LintRule]:
    """Instantiate the selected rules (all, when none are named).

    Unknown ids raise :exc:`ValueError` listing the valid ones — the
    CLI maps that onto usage-error exit code 2.
    """
    rules = available_rules()
    if not selected:
        return [rules[name] for name in sorted(rules)]
    unknown = sorted(set(selected) - set(rules))
    if unknown:
        raise ValueError(
            f"unknown lint rules {unknown}; valid: {sorted(rules)}"
        )
    return [rules[name] for name in sorted(set(selected))]


# ---------------------------------------------------------------------------
# module loading
# ---------------------------------------------------------------------------

def _iter_python_files(path: pathlib.Path) -> Iterable[pathlib.Path]:
    if path.is_file():
        yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        if "__pycache__" in candidate.parts:
            continue
        yield candidate


def _rel_path(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(path)


@dataclass
class LintRun:
    """Everything one lint pass produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules: List[str] = field(default_factory=list)
    #: findings silenced by ``# repro: allow`` comments (for reporting).
    suppressed: int = 0


def _collect(modules: Sequence[ModuleIndex], rules: Sequence[LintRule],
             parse_failures: Sequence[Finding]) -> LintRun:
    run = LintRun(files_checked=len(modules) + len(parse_failures),
                  rules=[rule.id for rule in rules])
    run.findings.extend(parse_failures)
    by_path = {module.rel_path: module for module in modules}
    raw: List[Finding] = []
    for rule in rules:
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(modules))
    for finding in sorted(set(raw)):
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.line,
                                                       finding.rule):
            run.suppressed += 1
            continue
        run.findings.append(finding)
    run.findings.sort()
    return run


def lint_paths(
    paths: Sequence[PathLike],
    rule_ids: Optional[Sequence[str]] = None,
    root: Optional[PathLike] = None,
) -> LintRun:
    """Lint every ``.py`` file under ``paths`` with the selected rules.

    ``root`` anchors the repo-relative paths findings report (default:
    the current working directory).  Missing paths raise
    :exc:`FileNotFoundError`; files that fail to parse produce a
    ``parse-error`` finding instead of aborting the run.
    """
    rules = resolve_rules(rule_ids)
    rootpath = pathlib.Path(root) if root is not None else pathlib.Path(".")
    modules: List[ModuleIndex] = []
    parse_failures: List[Finding] = []
    for path in paths:
        path = pathlib.Path(path)
        if not path.exists():
            raise FileNotFoundError(f"lint path {path} does not exist")
        for source_path in _iter_python_files(path):
            rel = _rel_path(source_path, rootpath)
            try:
                source = source_path.read_text(encoding="utf-8")
                modules.append(ModuleIndex(source, str(source_path), rel))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                line = getattr(exc, "lineno", None) or 1
                parse_failures.append(Finding(
                    path=rel, line=int(line), rule=PARSE_ERROR_RULE,
                    message=f"file does not parse: {exc}",
                ))
    return _collect(modules, rules, parse_failures)


def lint_source(
    source: str,
    name: str = "<string>",
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one in-memory source string (docs examples, tests).

    ``name`` stands in for the file path, so path-scoped rules can be
    exercised by passing e.g. ``name="src/repro/engine/jobs.py"``.
    """
    rules = resolve_rules(rule_ids)
    module = ModuleIndex(source, name, name)
    return _collect([module], rules, []).findings


# ---------------------------------------------------------------------------
# --fix-suppressions
# ---------------------------------------------------------------------------

def apply_suppressions(findings: Sequence[Finding],
                       root: Optional[PathLike] = None) -> Dict[str, int]:
    """Append ``# repro: allow(<rule>)`` to every finding's line.

    The blunt instrument for grandfathering existing violations when a
    new rule lands: each flagged line gains (or extends) a suppression
    comment, after which the tree lints clean and every waiver is
    visible in the diff.  Returns path → lines-changed counts.
    ``parse-error`` findings are skipped — an unparseable file cannot
    be suppressed into compliance.
    """
    rootpath = pathlib.Path(root) if root is not None else pathlib.Path(".")
    per_file: Dict[str, Dict[int, List[str]]] = {}
    for finding in findings:
        if finding.rule == PARSE_ERROR_RULE:
            continue
        per_file.setdefault(finding.path, {}).setdefault(
            finding.line, []).append(finding.rule)
    changed: Dict[str, int] = {}
    for rel, lines in per_file.items():
        path = rootpath / rel
        text = path.read_text(encoding="utf-8")
        source_lines = text.splitlines()
        for lineno, rule_ids in lines.items():
            if not 1 <= lineno <= len(source_lines):
                continue
            line = source_lines[lineno - 1]
            match = SUPPRESS_RE.search(line)
            if match:
                existing = [part.strip()
                            for part in match.group(1).split(",")
                            if part.strip()]
                merged = sorted(set(existing) | set(rule_ids))
                line = (line[:match.start()]
                        + f"# repro: allow({', '.join(merged)})")
            else:
                line = line.rstrip() \
                    + f"  # repro: allow({', '.join(sorted(set(rule_ids)))})"
            source_lines[lineno - 1] = line
        path.write_text("\n".join(source_lines)
                        + ("\n" if text.endswith("\n") else ""),
                        encoding="utf-8")
        changed[rel] = len(lines)
    return changed
