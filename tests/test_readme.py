"""The README's library example runs as written, and its shell example shows
what `verify` prints."""

import re
from pathlib import Path

from oddgraceful.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_forced_failure_comment_matches_verify(capsys, tmp_path):
    document = tmp_path / "forced.json"
    main(["generate", "--spec", "C10+P6", "--force", "--out", str(document)])
    capsys.readouterr()
    assert main(["verify", "--input", str(document)]) == 1
    # the first line is the verdict, then one "  - <violation>" line each
    _, violation = capsys.readouterr().out.splitlines()
    assert violation.startswith("  - ")
    assert f"# -> {violation[4:]}\n" in README.read_text()
