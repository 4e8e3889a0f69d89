"""Golden outputs: the exact bytes of generate, verify and search, and the
error raised for every small (m, n).

The expected values are fixed records of the command line's output. Any
change to serialization, violation text, search order or statistics, or to
(m, n) validation shows up here as a failure.
"""

import hashlib

import pytest

from oddgraceful.cli import main
from oddgraceful.construction import force_params, validate_params
from oddgraceful.graphs import build_union_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (spec, format) -> (exit code, sha256 of stdout); both methods must match it
GENERATE = {
    ("C4+P3", "json"): (0, "3e54d5facd14c8d7f88ef9d08beef8e9b2c43f2df6c62e25747512bdcb135a0b"),
    ("C4+P3", "dot"): (0, "478589b18896152356099b148b9bc0f8253360c17b79e6f506588ec76ed5d757"),
    ("C4+P3", "csv"): (0, "fd843c90a4fc0731d28007a298d5c3f291cce1dc48aa5c9013169eee378aadf7"),
    ("C6+P3", "json"): (0, "29ae5d0bc43678af5f3fa24fe6054ae07a888cb8ef71a8f9285f2dccf6d6df8e"),
    ("C6+P3", "dot"): (0, "024ec8ad402210787199a7c9237f8bfd603d257745dd20c4a965e6828e84d40d"),
    ("C6+P3", "csv"): (0, "ad7ba41e7dd4be68a03b4d2e2c906c0b85227415bdf8f6a025b7fd50a745046d"),
    ("C8+P12", "json"): (0, "64b674486fb0175f270cad73f88638b0482f4400b12e58525a69862f3c4f5ee3"),
    ("C8+P12", "dot"): (0, "69f3174ff31ed9907b67187a7b46fec3b6d644f5e36899989f4cda6311e200a8"),
    ("C8+P12", "csv"): (0, "08d056e7a176a1ebd03c9f47b3e59d99772cee2a11f8759435585d0efe10efa6"),
    ("C10+P6", "json"): (1, "87faf3f6eda707665189a0c0e0393c49030e226c7a0f3407db0cb52a91e27319"),
    ("C10+P6", "dot"): (1, "01bc76920477cabb4a210d8a9d44d2d57d09b02ba451389c45c256e83efe3791"),
    ("C10+P6", "csv"): (1, "2654a54514f45a894b3b17a726391ffcd588421d425ed51cd4d4d617af7fcdca"),
}

FORCED_STDERR = "verification failed (1 violation):\n  - vertex label 8 shared by u9, v6\n"

VERIFY_FORCED = "odd graceful: NO (1 violation)\n  - vertex label 8 shared by u9, v6\n"

VERIFY_FORCED_JSON = """\
{
  "is_odd_graceful": false,
  "q": 15,
  "violations": [
    {
      "kind": "DuplicateVertexLabel",
      "label": 8,
      "vertices": [
        "u9",
        "v6"
      ]
    }
  ]
}
"""

SEARCH = {
    "C4+P3": (0, """\
status: found
nodes expanded: 151
assignments tried: 1766
certificate (verifier-checked):
  w1 = 0
  w2 = 3
  w3 = 2
  w4 = 11
  w5 = 6
  w6 = 1
  w7 = 8
"""),
    "C7": (2, """\
status: exhausted-none
nodes expanded: 9136
assignments tried: 127911
"""),
    "C4+C4": (0, """\
status: found
nodes expanded: 1809
assignments tried: 28872
certificate (verifier-checked):
  w1 = 0
  w2 = 3
  w3 = 2
  w4 = 15
  w5 = 1
  w6 = 10
  w7 = 5
  w8 = 12
"""),
}

# One row per m = -1..12, one cell per n = -1..12: O odd cycle, C cycle too
# small, P<k> path too short with required k, . accepted.
VALIDATE_GRID = """\
O O O O O O O O O O O O O O
C C C C C C C C C C C C C C
O O O O O O O O O O O O O O
C C C C C C C C C C C C C C
O O O O O O O O O O O O O O
P3 P3 P3 P3 . . . . . . . . . .
O O O O O O O O O O O O O O
P3 P3 P3 P3 . . . . . . . . . .
O O O O O O O O O O O O O O
P7 P7 P7 P7 P7 P7 P7 P7 . . . . . .
O O O O O O O O O O O O O O
P7 P7 P7 P7 P7 P7 P7 P7 . . . . . .
O O O O O O O O O O O O O O
P11 P11 P11 P11 P11 P11 P11 P11 P11 P11 P11 P11 . .
"""

# force_params and build_union_graph apply only the structural limits
STRUCTURAL_GRID = """\
O O O O O O O O O O O O O O
C C C C C C C C C C C C C C
O O O O O O O O O O O O O O
C C C C C C C C C C C C C C
O O O O O O O O O O O O O O
P1 P1 . . . . . . . . . . . .
O O O O O O O O O O O O O O
P1 P1 . . . . . . . . . . . .
O O O O O O O O O O O O O O
P1 P1 . . . . . . . . . . . .
O O O O O O O O O O O O O O
P1 P1 . . . . . . . . . . . .
O O O O O O O O O O O O O O
P1 P1 . . . . . . . . . . . .
"""


@pytest.mark.parametrize("method", ["closed", "algorithmic"])
@pytest.mark.parametrize("spec, fmt", sorted(GENERATE))
def test_generate_bytes(capsys, spec, fmt, method):
    argv = ["generate", "--spec", spec, "--format", fmt, "--method", method]
    forced = spec == "C10+P6"
    if forced:
        argv.append("--force")
    code, out, err = run(capsys, *argv)
    assert (code, sha256(out)) == GENERATE[spec, fmt]
    assert err == (FORCED_STDERR if forced else "")


def test_verify_forced_document(capsys, tmp_path):
    document = tmp_path / "forced.json"
    run(capsys, "generate", "--spec", "C10+P6", "--force", "--out", str(document))
    assert run(capsys, "verify", "--input", str(document)) == (1, VERIFY_FORCED, "")
    assert run(capsys, "verify", "--input", str(document), "--json") == (
        1, VERIFY_FORCED_JSON, "",
    )


@pytest.mark.parametrize("spec", sorted(SEARCH))
def test_search_stdout(capsys, spec):
    code, out, err = run(capsys, "search", "--spec", spec)
    assert (code, out) == SEARCH[spec]


def error_grid(gate):
    codes = {"OddCycleError": "O", "CycleTooSmallError": "C", "PathTooShortError": "P"}
    rows = []
    for m in range(-1, 13):
        cells = []
        for n in range(-1, 13):
            try:
                gate(m, n)
            except Exception as exc:  # any class is recorded, not just ours
                required = getattr(exc, "required", None)
                code = codes.get(type(exc).__name__, type(exc).__name__)
                cells.append(code if required is None else f"{code}{required}")
            else:
                cells.append(".")
        rows.append(" ".join(cells))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "gate, expected",
    [
        (validate_params, VALIDATE_GRID),
        (force_params, STRUCTURAL_GRID),
        (build_union_graph, STRUCTURAL_GRID),
    ],
    ids=["validate_params", "force_params", "build_union_graph"],
)
def test_error_grid(gate, expected):
    assert error_grid(gate) == expected
