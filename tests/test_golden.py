"""Golden outputs: the exact bytes of generate, verify and search, the
error raised for every small (m, n), the parse of every single-field
mutation of two labeling documents and of C8+P7 in other layouts, and the
verifier's report on every single mutation of a set of labelings.

The expected values are fixed records of the command line's output. Any
change to serialization, violation text, search order or statistics, or to
(m, n) validation shows up here as a failure.
"""

import copy
import hashlib
import json

import pytest

from oddgraceful import DocumentError, closed_form_labeling
from oddgraceful.cli import main
from oddgraceful.construction import force_params, min_path_length, validate_params
from oddgraceful.formats import labeling_document, parse_labeling_document, violation_to_dict
from oddgraceful.graphs import build_union_graph
from oddgraceful.graphspec import parse_graph_spec, topology_from_spec
from oddgraceful.verification import verify_odd_graceful
from test_fuzz import field_paths


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
nodes expanded: 5
assignments tried: 6
certificate (verifier-checked):
  w1 = 0
  w2 = 11
  w3 = 2
  w4 = 7
  w5 = 1
  w6 = 4
  w7 = 3
"""),
    "C7": (2, """\
status: exhausted-none
nodes expanded: 0
assignments tried: 0
proof: odd cycle
"""),
    "C4+C4": (0, """\
status: found
nodes expanded: 6
assignments tried: 8
certificate (verifier-checked):
  w1 = 0
  w2 = 15
  w3 = 2
  w4 = 11
  w5 = 1
  w6 = 8
  w7 = 3
  w8 = 4
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


DELETE = object()

MUTATIONS = {
    "delete": DELETE,
    "None": None,
    "True": True,
    "-1": -1,
    "0": 0,
    "u1": "u1",
    "v9": "v9",
    "z1": "z1",
    "[]": [],
    "{}": {},
}

# (m, n) -> (mutations parsed, mutations accepted, sha256 of the records)
MUTATION_GOLDEN = {
    (4, 3): (510, 70, "5fa10544c67cc249e7a8444eb9d5187433a2f0c2e4ce506ebfaaab35cafed8ab"),
    (8, 7): (1070, 158, "e41838046005dbdacd0be9b58cdfafd0acb54deb756aa723512265afd12a2b37"),
}


def parse_record(text):
    """What the parser makes of a document: its result or its exact error."""
    try:
        topology, labels = parse_labeling_document(text)
    except DocumentError as exc:
        return f"error: {exc}"
    return f"ok: {topology.m} {topology.n} {topology.names} {topology.edges} {labels}"


def mutated(document, path, value):
    """A copy of ``document`` with the field at ``path`` set to ``value`` or deleted."""
    copied = copy.deepcopy(document)
    parent = copied
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copied


def mutation_records(document):
    for path in field_paths(document):
        for name, value in MUTATIONS.items():
            text = json.dumps(mutated(document, path, value))
            yield f"{path} {name} -> {parse_record(text)}"


@pytest.mark.parametrize("m, n", sorted(MUTATION_GOLDEN), ids=["C4+P3", "C8+P7"])
def test_single_field_mutations(m, n):
    document = labeling_document(
        build_union_graph(m, n), closed_form_labeling(validate_params(m, n))
    )
    records = list(mutation_records(document))
    accepted = sum(" -> ok: " in record for record in records)
    digest = sha256("\n".join(records) + "\n")
    assert (len(records), accepted, digest) == MUTATION_GOLDEN[m, n]


def c8p7_document():
    return labeling_document(build_union_graph(8, 7), closed_form_labeling(validate_params(8, 7)))


def swapped(items, i, j):
    items[i], items[j] = items[j], items[i]


def reverse_edge(document, index):
    edge = document["edges"][index]
    edge["from"], edge["to"] = edge["to"], edge["from"]


def set_all_edge_labels(document, value):
    for edge in document["edges"]:
        edge["label"] = value


# valid documents in another layout: each parses like the document itself
SAME_PARSE = {
    "reversed cycle and path edges": lambda d: (reverse_edge(d, 0), reverse_edge(d, 10)),
    "extra vertex and edge keys": lambda d: (
        d["vertices"][3].update(note="x"), d["edges"][5].update(weight=1)
    ),
    "stored edge labels all 0": lambda d: set_all_edge_labels(d, 0),
}

# near misses of C8+P7 and the exact error each must raise
NEAR_MISSES = {
    "two vertex entries swapped": (
        lambda d: swapped(d["vertices"], 2, 3),
        "graph m=8, n=7: the listed vertices and edges are not C8+P7",
    ),
    "two edge entries swapped": (
        lambda d: swapped(d["edges"], 2, 3),
        "graph m=8, n=7: the listed vertices and edges are not C8+P7",
    ),
    "q written as true": (
        lambda d: d.update(q=True),
        "q: expected an integer, got True",
    ),
    "q written as 14.0": (
        lambda d: d.update(q=14.0),
        "q: expected an integer, got 14.0",
    ),
    "label written as 3.0": (
        lambda d: d["vertices"][4].update(label=3.0),
        "vertices[4].label: expected an integer, got 3.0",
    ),
    "label written as true": (
        lambda d: d["vertices"][4].update(label=True),
        "vertices[4].label: expected an integer, got True",
    ),
    "one vertex renamed": (
        lambda d: d["vertices"][9].update(id="w2"),
        "edges[8]: edge references an unknown vertex",
    ),
    "one edge to another vertex": (
        lambda d: d["edges"][12].update(to="v1"),
        "graph m=8, n=7: the listed vertices and edges are not C8+P7",
    ),
    "last edge dropped, q kept": (
        lambda d: d["edges"].pop(),
        "document says q=14 but lists 13 edges",
    ),
    "last edge dropped, q lowered": (
        lambda d: (d["edges"].pop(), d.update(q=13)),
        "graph m=8, n=7: the listed vertices and edges are not C8+P7",
    ),
    "one vertex dropped": (
        lambda d: d["vertices"].pop(),
        "edges[13]: edge references an unknown vertex",
    ),
}

C8P7_RECORD = "a0ff774ef3ba64fed172fc1f22cabd59bfc90f90f3a8428901036db5b9bb7585"


def test_union_layouts():
    indented = json.dumps(c8p7_document(), indent=2)
    assert sha256(parse_record(indented)) == C8P7_RECORD
    assert parse_record(json.dumps(c8p7_document())) == parse_record(indented)
    for name, change in SAME_PARSE.items():
        document = c8p7_document()
        change(document)
        assert parse_record(json.dumps(document, indent=2)) == parse_record(indented), name
    for name, (change, error) in NEAR_MISSES.items():
        document = c8p7_document()
        change(document)
        assert parse_record(json.dumps(document, indent=2)) == f"error: {error}", name


# certificates the vertex-order search found for the search suite, in sorted
# spec order; fixed here so that the verifier's inputs do not move with the
# search order
SEARCH_CERTIFICATES = {
    "C10+P5": (0, 1, 4, 9, 16, 25, 6, 17, 2, 27, 5, 26, 3, 20, 7),
    "C12+P4": (0, 1, 4, 9, 16, 3, 12, 23, 6, 27, 2, 29, 13, 28, 5, 24),
    "C4+C4": (0, 3, 2, 15, 1, 10, 5, 12),
    "C4+P2": (0, 3, 2, 9, 1, 6),
    "C4+P3": (0, 3, 2, 11, 6, 1, 8),
    "C6+P2": (0, 1, 4, 9, 2, 13, 3, 12),
    "C6+P3": (0, 1, 4, 9, 2, 15, 3, 14, 5),
    "C8+P3": (0, 1, 4, 11, 6, 15, 2, 19, 3, 18, 7),
    "C8+P4": (0, 1, 4, 11, 6, 15, 2, 21, 3, 20, 5, 16),
    "C8+P5": (0, 1, 4, 11, 6, 15, 2, 23, 3, 22, 5, 20, 9),
    "C8+P7": (0, 1, 4, 9, 16, 25, 2, 27, 3, 18, 5, 26, 7, 24, 13),
    "P10": (0, 17, 2, 1, 4, 9, 16, 3, 14, 5),
}


def verifier_cases():
    """(name, topology, labeling): in-range unions and their complements,
    forced unions below the bound, and a set of search certificates."""
    for m, n in ((4, 3), (8, 7), (12, 11)):
        topology = build_union_graph(m, n)
        labeling = closed_form_labeling(validate_params(m, n))
        yield f"C{m}+P{n}", topology, labeling
        mirrored = tuple(2 * topology.q - 1 - v for v in labeling)
        yield f"C{m}+P{n} complement", topology, mirrored
    for m in range(4, 13, 2):
        for n in range(1, min_path_length(m)):
            yield f"C{m}+P{n} forced", build_union_graph(m, n), closed_form_labeling(
                force_params(m, n)
            )
    for spec, certificate in SEARCH_CERTIFICATES.items():
        yield spec, topology_from_spec(parse_graph_spec(spec)), certificate


def single_mutations(labeling, q):
    """The labeling itself, then every swap, +-1 or +-2, -1 or 2q, and copy."""
    yield "as is", labeling

    def with_label(i, value):
        return labeling[:i] + (value,) + labeling[i + 1:]

    for i, label in enumerate(labeling):
        for j in range(i + 1, len(labeling)):
            yield f"swap {i} {j}", with_label(i, labeling[j])[:j] + (label,) + labeling[j + 1:]
        for value in (label - 2, label - 1, label + 1, label + 2, -1, 2 * q):
            yield f"{i} = {value}", with_label(i, value)
        for j, other in enumerate(labeling):
            if j != i:
                yield f"{i} = label of {j}", with_label(i, other)


# (reports, reports that pass, sha256 of the records)
VERIFIER_GOLDEN = (
    15185, 59, "10ed5daf1b6c811057928d016a0cf54b13a440ef7b7de1fcada0caefb4d3c815"
)


def test_verifier_reports():
    records = []
    for name, topology, labeling in verifier_cases():
        for mutation, candidate in single_mutations(labeling, topology.q):
            report = verify_odd_graceful(topology, candidate)
            violations = [violation_to_dict(v) for v in report.violations]
            records.append(f"{name} {mutation}: {report.is_odd_graceful} {json.dumps(violations)}")
    passing = sum(": True []" in record for record in records)
    assert (len(records), passing, sha256("\n".join(records) + "\n")) == VERIFIER_GOLDEN
