"""Runnable shim for the ``repro bench`` throughput harness.

Usage (equivalent to ``python -m repro bench``)::

    PYTHONPATH=src python benchmarks/throughput.py [--quick]

The measurement logic lives in ``src/repro/bench.py``; this shim keeps
the benchmark discoverable next to the figure benchmarks.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
