#!/usr/bin/env python3
"""Regenerate certificates.json, the stored evidence for search-suite verdicts.

    python3 perfbench/certificates.py

Each search-suite graph that must be found (other than a path, whose
labeling the checker knows) gets one odd graceful labeling, listed in the
vertex order of ``search --spec`` (cycle block first, then the next term):
in-range unions from ``generate`` (the paper's construction), below-bound
unions and C4+C4 from the search oracle. The checker checks every stored
certificate before it trusts it, so where one came from does not matter.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import checker
import run
import workloads


def _quiet(main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(argv) != 0:
            raise SystemExit(f"certificates: {' '.join(argv)} did not succeed")
    return out.getvalue()


def from_construction(main, spec: str) -> list[int]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        _quiet(main, ["generate", "--spec", spec, "--out", str(path)])
        document = json.loads(path.read_text())
    return [vertex["label"] for vertex in document["vertices"]]


def from_search(main, spec: str) -> list[int]:
    text = _quiet(main, ["search", "--spec", spec])
    found = dict(re.findall(r"^  w([0-9]+) = ([0-9]+)$", text, re.MULTILINE))
    return [int(found[str(i)]) for i in range(1, len(found) + 1)]


def main() -> int:
    cli = run.import_program().cli
    stored = {spec: from_construction(cli.main, spec)
              for spec in workloads.CERTIFIED_BY_CONSTRUCTION}
    stored.update({spec: from_search(cli.main, spec)
                   for spec in workloads.CERTIFIED_BY_SEARCH})
    text = "{\n" + ",\n".join(f'  "{spec}": {json.dumps(labels)}'
                              for spec, labels in stored.items()) + "\n}\n"
    checker.CERTIFICATES.write_text(text)
    checker.load_certificates()
    print(f"wrote {len(stored)} checked certificates to {checker.CERTIFICATES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
