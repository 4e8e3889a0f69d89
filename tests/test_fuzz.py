"""Fuzzed inputs: each parser raises only its own error class, a spec's
terms parse back from their text, ``verify`` ends every document in exit code
0, 1 or 64, a one-character edit of ``generate``'s bytes parses as it does
through the per-entry walk alone, and the verifier's pass check agrees with
its itemizing checks."""

import contextlib
import copy
import io
import json
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from oddgraceful import (
    DocumentError,
    GraphSpecError,
    build_union_graph,
    closed_form_labeling,
    formats,
    validate_params,
)
from oddgraceful.cli import main
from oddgraceful.formats import document_to_json, labeling_document, parse_labeling_document
from oddgraceful.graphs import build_free_graph
from oddgraceful.graphspec import parse_edge_list, parse_graph_spec
from oddgraceful.verification import _violations, edge_labels, verify_odd_graceful

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-2, 20)
    | st.floats()
    | st.text()
    | st.sampled_from(["u1", "u4", "u5", "v1", "v3", "v4", "w1", "x1"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8) | st.sampled_from(["graph", "m", "n"]), children),
    max_leaves=20,
)

C4P3 = labeling_document(build_union_graph(4, 3), closed_form_labeling(validate_params(4, 3)))


def field_paths(value, prefix=()):
    """Every key/index path to a field below the document root."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, prefix + (key,))


DELETE = object()


@st.composite
def mutated_documents(draw):
    """The C4+P3 document with one field replaced or deleted."""
    path = draw(st.sampled_from(list(field_paths(C4P3))))
    value = draw(st.just(DELETE) | JSON_VALUES)
    document = copy.deepcopy(C4P3)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(document)


DOCUMENTS = JSON_VALUES.map(json.dumps) | mutated_documents() | st.text()


@given(st.text() | st.text(alphabet="CP@+0123456789 x", max_size=12))
def test_spec_parser_raises_only_spec_errors(text):
    try:
        parse_graph_spec(text)
    except GraphSpecError as exc:
        assert 0 <= exc.offset <= len(text)


TERMS = st.tuples(st.sampled_from("CP"), st.integers(1, 10**18 - 1)) | st.tuples(
    st.just("@"), st.text(st.characters(exclude_characters="+"), min_size=1)
)


@given(st.lists(TERMS, min_size=1, max_size=4))
def test_spec_terms_parse_back(terms):
    text = "+".join(f"{kind}{value}" for kind, value in terms)
    assert parse_graph_spec(text) == tuple(terms)


@given(st.text() | st.text(alphabet="0123456789 -+_#\nx", max_size=30))
def test_edge_list_parser_raises_only_document_errors(text):
    try:
        parse_edge_list(text)
    except DocumentError:
        pass


@settings(deadline=None)
@given(DOCUMENTS)
def test_documents_parse_or_fail_cleanly(tmp_path_factory, text):
    try:
        parse_labeling_document(text)
        expected = {0, 1}
    except DocumentError:
        expected = {64}
    target = tmp_path_factory.getbasetemp() / "fuzzed-document.json"
    target.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--input", str(target)])
    assert code in expected


@st.composite
def labeled_graphs(draw):
    """A free graph on at most 6 vertices and a labeling of it: labels drawn
    from [-1, 2q], distinct or not, or labels whose parity flips along each
    edge in edge order, so that most induced labels are odd."""
    edges = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1))
    edges = [(a, b) for a, b in edges if a != b] or [(1, 2)]
    topology = build_free_graph(edges)
    size, top = len(topology.names), 2 * topology.q - 1
    kind = draw(st.sampled_from(["any", "distinct", "by parity"]))
    if kind == "any":
        labeling = draw(st.lists(st.integers(-1, top + 1), min_size=size, max_size=size))
    elif kind == "distinct":
        labeling = draw(st.permutations(range(-1, top + 2)))[:size]
    else:
        parities = [0] * size
        for a, b in topology.edges:
            parities[b] = 1 - parities[a]
        evens, odds = range(0, top + 1, 2), range(1, top + 1, 2)
        labeling = [draw(st.sampled_from(odds if side else evens)) for side in parities]
    return topology, tuple(labeling)


@given(labeled_graphs())
# induced labels 1 and 1: odd and in range, but not distinct
@example((build_free_graph([(1, 2), (2, 3)]), (0, 1, 2)))
def test_pass_check_agrees_with_itemizing(case):
    topology, labeling = case
    report = verify_odd_graceful(topology, labeling)
    violations = _violations(topology, labeling, edge_labels(topology, labeling))
    assert report.is_odd_graceful == (not violations)


WRITTEN = [
    document_to_json(build_union_graph(m, n), closed_form_labeling(validate_params(m, n)))
    for m, n in ((4, 3), (8, 7))
]


@st.composite
def edited_written_documents(draw):
    """A document ``generate`` wrote, with one character substituted,
    deleted or inserted at a drawn offset."""
    text = draw(st.sampled_from(WRITTEN))
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from('0123456789-"{}[],: \nuv') | st.characters())
    edit = draw(st.sampled_from(["substitute", "delete", "insert"]))
    rest = text[at:] if edit == "insert" else text[at + 1 :]
    return text[:at] + ("" if edit == "delete" else char) + rest


def parse_outcome(text):
    try:
        return parse_labeling_document(text)
    except DocumentError as exc:
        return f"error: {exc}"


@given(edited_written_documents())
def test_edited_written_documents_parse_as_in_the_walk(text):
    outcome = parse_outcome(text)
    with mock.patch.object(formats, "_written_union", lambda text: None):
        assert parse_outcome(text) == outcome
