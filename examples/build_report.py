"""Assemble the markdown reproduction report from benchmark outputs.

Run the benchmarks first (``pytest benchmarks/ --benchmark-only``), then:

    python examples/build_report.py [output.md]

The report collects every regenerated figure table; the claims ledger
(each paper claim's sides, margin, bound and verdict) prints after it —
the quickest way to review a full reproduction run.
"""

import pathlib
import sys

from repro.experiments.report import build_report

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def main() -> int:
    if not RESULTS_DIR.exists():
        print("no benchmarks/results directory — run the benchmarks first")
        return 1
    output = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else None
    report = build_report(RESULTS_DIR, output=output)
    if output is None:
        print(report)
    else:
        print(f"wrote {output} ({len(report.splitlines())} lines)")
    ledger = RESULTS_DIR / "claims.txt"
    if ledger.exists():
        print()
        print(ledger.read_text(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
