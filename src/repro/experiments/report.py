"""Assemble a summary report from regenerated figure tables.

The benchmarks write each figure's table to
``benchmarks/results/<figure>.txt``; this module parses those files back
into :class:`~repro.experiments.figures.FigureResult` objects and renders
a single markdown report — the quickest way to eyeball a full
reproduction run, and the machinery behind ``examples/build_report.py``.
"""

from __future__ import annotations

import pathlib
import re
from typing import Dict, Optional, Union

from .figures import FIGURES, FigureResult

PathLike = Union[str, pathlib.Path]

_HEADER_RE = re.compile(r"^(?P<fig>\S+): (?P<title>.+)$")


def parse_result_file(path: PathLike) -> FigureResult:
    """Parse one ``<figure>.txt`` table back into a FigureResult."""
    lines = pathlib.Path(path).read_text().splitlines()
    if len(lines) < 3:
        raise ValueError(f"{path}: too short to be a figure table")
    match = _HEADER_RE.match(lines[0])
    if match is None or not set(lines[1]) <= {"-"}:
        raise ValueError(f"{path}: missing figure header")
    result = FigureResult(match.group("fig"), match.group("title"))

    columns = lines[2].split()
    for line in lines[3:]:
        if not line.strip():
            continue
        if line.startswith("note: "):
            result.notes = line[len("note: "):]
            continue
        cells = line.split()
        values = cells[len(cells) - len(columns):]
        label = " ".join(cells[: len(cells) - len(columns)])
        try:
            parsed = {c: float(v) for c, v in zip(columns, values)}
        except ValueError:
            raise ValueError(f"{path}: unparseable row {line!r}") from None
        result.add(label or cells[0], **parsed)
    return result


def load_results(directory: PathLike) -> Dict[str, FigureResult]:
    """Load every parseable figure table under ``directory`` (the claims
    ledger ``claims.txt`` has no figure header, so it is skipped)."""
    out: Dict[str, FigureResult] = {}
    for path in sorted(pathlib.Path(directory).glob("*.txt")):
        try:
            result = parse_result_file(path)
        except ValueError:
            continue
        out[result.figure_id] = result
    return out


def _sort_key(figure_id: str):
    match = re.match(r"([A-Za-z]+)(\d+)([a-z]?)", figure_id)
    if match is None:
        return (2, 0, figure_id)
    kind, number, suffix = match.groups()
    return (0 if kind == "Fig" else 1, int(number), suffix)


def render_report(
    results: Dict[str, FigureResult],
    title: str = "Athena reproduction — regenerated evaluation",
) -> str:
    """Render the loaded figure tables as one markdown document."""
    lines = [f"# {title}", ""]
    known = [fid for fid in results if fid in FIGURES]
    extra = [fid for fid in results if fid not in FIGURES]
    for fid in sorted(known, key=_sort_key) + sorted(extra, key=_sort_key):
        result = results[fid]
        lines.append(f"## {fid}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.format_table())
        lines.append("```")
        lines.append("")
    if not known and not extra:
        lines.append("*(no figure tables found — run the benchmarks first)*")
    return "\n".join(lines)


def build_report(
    results_dir: PathLike,
    output: Optional[PathLike] = None,
) -> str:
    """Load ``results_dir`` and render (optionally write) the report."""
    report = render_report(load_results(results_dir))
    if output is not None:
        pathlib.Path(output).write_text(report)
    return report

