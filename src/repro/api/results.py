"""Tidy result objects returned by the Session API.

Every result exposes the same export surface — ``to_rows()`` (list of
flat dicts, one per observation), ``to_json()``, ``to_csv()`` — so
downstream consumers (pandas, spreadsheets, dashboards) ingest any
result kind identically, and a whole :class:`ExperimentResult`
concatenates its sections into one long table.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.figures import FigureResult


class ResultExportMixin:
    """Shared ``to_rows``-derived exports."""

    def to_rows(self) -> List[Dict[str, object]]:  # pragma: no cover
        raise NotImplementedError

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_rows(), indent=indent)

    def to_csv(self) -> str:
        rows = self.to_rows()
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buffer.getvalue()


@dataclass
class RunResult(ResultExportMixin):
    """One resolved :class:`~repro.api.spec.RunSpec`.

    ``ipc`` is the policy run's IPC (geomean across agent seeds for
    athena), ``speedup`` its ratio over the matching no-mechanism
    baseline — the paper's per-workload metric.  ``results`` holds the
    full :class:`~repro.sim.region.SimulationResult` objects
    (baseline first) for epoch-level inspection; ``cached`` is True when
    every underlying request came from the memo/store.

    A spec whose execution failed after retries still produces a
    result: ``status="error"``, ``error`` holds the failure summary,
    and the numeric fields are ``None`` — streaming consumers see every
    spec settle exactly once.
    """

    spec: object
    workload: str
    design: str
    policy: str
    ipc: Optional[float]
    baseline_ipc: Optional[float]
    speedup: Optional[float]
    keys: List[str] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    cached: bool = False
    status: str = "ok"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def result(self):
        """The representative policy run (first agent seed)."""
        return self.results[1] if len(self.results) > 1 else self.results[0]

    @property
    def baseline_result(self):
        return self.results[0]

    def to_rows(self) -> List[Dict[str, object]]:
        # include the full spec identity (variant, params, overrides):
        # two runs differing only in alpha or variant must stay
        # distinguishable in a groupby over the exported rows
        row: Dict[str, object] = {
            "workload": self.workload,
            "design": self.design,
            "policy": self.policy,
            "variant": getattr(self.spec, "variant", "full"),
            "design_params": json.dumps(
                getattr(self.spec, "design_params", {}) or {},
                sort_keys=True),
            "policy_params": json.dumps(
                getattr(self.spec, "policy_params", {}) or {},
                sort_keys=True),
            "ipc": self.ipc,
            "baseline_ipc": self.baseline_ipc,
            "speedup": self.speedup,
            "status": self.status,
        }
        if self.error is not None:
            row["error"] = self.error
        for key in ("trace_length", "epoch_length", "warmup_fraction"):
            value = getattr(self.spec, key, None)
            if value is not None:
                row[key] = value
        return [row]


@dataclass
class MixResult(ResultExportMixin):
    """One resolved :class:`~repro.api.spec.MixSpec` (per-core rows).

    A failed mix has ``status="error"``, ``result=None``, and exports a
    single row carrying the error instead of per-core observations.
    """

    spec: object
    name: str
    design: str
    policy: str
    key: str
    result: object  # MultiCoreResult (None when status != "ok")
    cached: bool = False
    status: str = "ok"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_rows(self) -> List[Dict[str, object]]:
        if self.result is None:
            return [{
                "mix": self.name,
                "design": self.design,
                "policy": self.policy,
                "status": self.status,
                "error": self.error,
            }]
        return [
            {
                "mix": self.name,
                "core": index,
                "workload": core.workload,
                "design": self.design,
                "policy": self.policy,
                "ipc": core.ipc,
                "instructions": core.instructions,
                "cycles": core.cycles,
                "status": self.status,
            }
            for index, core in enumerate(self.result.cores)
        ]


@dataclass
class SweepResult(ResultExportMixin):
    """One resolved sweep: the speedup matrix plus its table view."""

    spec: object
    table: FigureResult

    def format_table(self) -> str:
        return self.table.format_table()

    def to_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for label, values in self.table.rows:
            if label == "geomean":
                # synthetic aggregate: shown by format_table(), but one
                # row per *observation* here so downstream groupbys
                # don't double-count it
                continue
            for column, speedup in values.items():
                design, _, policy = column.partition("/")
                rows.append({
                    "workload": label,
                    "design": design,
                    "policy": policy,
                    "speedup": speedup,
                })
        return rows


@dataclass
class FigureOutcome(ResultExportMixin):
    """One regenerated figure, wrapped with the tidy export surface."""

    figure_id: str
    table: FigureResult

    def format_table(self) -> str:
        return self.table.format_table()

    def to_rows(self) -> List[Dict[str, object]]:
        return [
            {"figure": self.figure_id, "row": label, **values}
            for label, values in self.table.rows
        ]


@dataclass
class ExperimentResult(ResultExportMixin):
    """Everything one :class:`~repro.api.spec.ExperimentSpec` produced."""

    name: str
    sections: List[Tuple[str, ResultExportMixin]] = field(
        default_factory=list)

    def add(self, kind: str, result: ResultExportMixin) -> None:
        self.sections.append((kind, result))

    def of_kind(self, kind: str) -> List[ResultExportMixin]:
        return [result for k, result in self.sections if k == kind]

    def to_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for kind, result in self.sections:
            for row in result.to_rows():
                rows.append({"section": kind, **row})
        return rows

    def format_text(self) -> str:
        """Human-readable report: every tabular section in order."""
        blocks: List[str] = []
        for kind, result in self.sections:
            if hasattr(result, "format_table"):
                blocks.append(result.format_table())
            elif isinstance(result, RunResult):
                if not result.ok:
                    blocks.append(
                        f"run {result.workload} "
                        f"[{result.design}/{result.policy}]: "
                        f"FAILED — {result.error}"
                    )
                    continue
                blocks.append(
                    f"run {result.workload} [{result.design}/{result.policy}]"
                    f": ipc={result.ipc:.4f} "
                    f"baseline={result.baseline_ipc:.4f} "
                    f"speedup={result.speedup:.4f}"
                )
            elif isinstance(result, MixResult):
                if not result.ok:
                    blocks.append(
                        f"mix {result.name} "
                        f"[{result.design}/{result.policy}]: "
                        f"FAILED — {result.error}"
                    )
                    continue
                lines = [f"mix {result.name} "
                         f"[{result.design}/{result.policy}]:"]
                for row in result.to_rows():
                    lines.append(
                        f"  core{row['core']} {row['workload']:<28} "
                        f"ipc={row['ipc']:.4f}"
                    )
                blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


def attach_sweep_table(
    spec,
    workload_names: Sequence[str],
    columns: Sequence[Tuple[str, str, str]],
    cells: Dict[Tuple[str, str], float],
    geomeans: Dict[str, float],
) -> SweepResult:
    """Assemble the sweep's FigureResult exactly as ``repro sweep`` prints.

    ``cells`` maps (workload, column-label) → speedup.
    """
    table = FigureResult(
        "Sweep",
        f"speedup over no-prefetching baseline "
        f"({len(workload_names)} workloads)",
    )
    for name in workload_names:
        table.add(name, **{
            label: cells[(name, label)] for label, _, _ in columns
        })
    table.add("geomean", **dict(geomeans))
    return SweepResult(spec=spec, table=table)
