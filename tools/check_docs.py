#!/usr/bin/env python3
"""Link-check the markdown docs (CI `docs` job).

Scans README.md and docs/*.md for markdown links/images and verifies
that every *relative* target exists in the repository (anchors and
queries stripped; external http(s)/mailto links are skipped).  Also
checks that intra-doc reference style stays consistent: a link target
pointing at a directory must be a real directory.

Exit status: 0 when every link resolves, 1 otherwise (targets listed).
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: pages that must exist — deleting (or forgetting to commit) one of
#: these fails the docs job even though the glob would silently shrink.
REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/traces.md",
    "docs/streaming.md",
    "docs/performance.md",
    "docs/observability.md",
    "docs/robustness.md",
    "docs/distributed.md",
    "docs/static-analysis.md",
    "docs/reproduction.md",
)

#: [text](target) and ![alt](target), ignoring code spans.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_CODE_FENCE = re.compile(r"^(```|~~~)")
_EXTERNAL = ("http://", "https://", "mailto:")


def iter_links(path: pathlib.Path):
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if _CODE_FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            yield lineno, match.group(1)


def check_file(path: pathlib.Path) -> list:
    failures = []
    for lineno, target in iter_links(path):
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            failures.append(f"{path.relative_to(ROOT)}:{lineno}: "
                            f"broken link -> {target}")
    return failures


def main() -> int:
    sources = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    failures = []
    for required in REQUIRED_DOCS:
        if not (ROOT / required).exists():
            failures.append(f"missing required doc: {required}")
    checked = 0
    for source in sources:
        if not source.exists():
            failures.append(f"missing expected doc: {source}")
            continue
        checked += 1
        failures.extend(check_file(source))
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"checked {checked} file(s): "
          f"{'FAILED' if failures else 'all links resolve'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
