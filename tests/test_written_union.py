"""Which documents ``parse_labeling_document`` reads by writing them again.

``formats._written_union`` accepts a text only when it is byte for byte what
``document_to_json`` writes for the union and labels it reads from it. Every
other text goes through ``json.loads`` and the per-entry walk. These tests
check that the shortcut takes ``generate``'s own bytes, declines every other
layout, and never decides differently from the walk.
"""

import json
from itertools import accumulate

import pytest

from oddgraceful import (
    DocumentError,
    build_union_graph,
    closed_form_labeling,
    formats,
    validate_params,
)
from oddgraceful.formats import (
    _written_union,
    document_to_json,
    parse_labeling_document,
)
from test_fuzz import field_paths
from test_golden import MUTATIONS, mutated, parse_record


def written(m, n):
    return document_to_json(build_union_graph(m, n), closed_form_labeling(validate_params(m, n)))


@pytest.mark.parametrize("m, n", [(4, 3), (8, 7)], ids=["C4+P3", "C8+P7"])
def test_single_field_mutations_parse_as_in_the_walk(monkeypatch, m, n):
    document = json.loads(written(m, n))
    # json.dumps(doc, indent=2) plus a newline is generate's layout
    texts = [
        json.dumps(mutated(document, path, value), indent=2) + "\n"
        for path in field_paths(document)
        for value in MUTATIONS.values()
    ]
    # a field set to its own value leaves generate's bytes, which take the shortcut
    assert any(_written_union(text) is not None for text in texts)
    records = [parse_record(text) for text in texts]
    monkeypatch.setattr(formats, "_written_union", lambda text: None)
    assert [parse_record(text) for text in texts] == records


def test_generated_bytes_need_no_json_parse(monkeypatch):
    text = written(8, 7)
    expected = parse_labeling_document(json.dumps(json.loads(text)))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(formats.json, "loads", refuse)
    assert parse_labeling_document(text) == expected


def edited(change):
    """``change`` applied to the document, written in generate's layout."""

    def edit(text):
        document = json.loads(text)
        change(document)
        return json.dumps(document, indent=2) + "\n"

    return edit


def swap_endpoints(document):
    edge = document["edges"][3]
    edge["from"], edge["to"] = edge["to"], edge["from"]


OTHER_LAYOUTS = {
    "compact": lambda text: json.dumps(json.loads(text)),
    "no final newline": lambda text: text[:-1],
    "one edge's endpoints swapped": edited(swap_endpoints),
    "one stored edge label changed": edited(lambda d: d["edges"][5].update(label=1)),
    "one extra key": edited(lambda d: d["vertices"][2].update(note="x")),
}


@pytest.mark.parametrize("name", list(OTHER_LAYOUTS))
def test_other_layouts_take_the_walk(name):
    text = written(8, 7)
    other = OTHER_LAYOUTS[name](text)
    assert other != text
    assert _written_union(other) is None
    assert parse_labeling_document(other) == parse_labeling_document(text)


@pytest.mark.parametrize("field", ['"label": ', '"m": '])
def test_too_long_a_number_is_a_json_error(field):
    # 5,000 more digits on the first vertex label or on graph.m
    text = written(8, 7).replace(field, field + "1" * 5000, 1)
    with pytest.raises(DocumentError) as excinfo:
        parse_labeling_document(text)
    assert str(excinfo.value) == "invalid JSON: integer too large"


def piece_ends(m, n):
    """The text generate writes for C_m + P_n, and where each of its pieces ends."""
    topology = build_union_graph(m, n)
    pieces = list(formats.document_pieces(topology, closed_form_labeling(validate_params(m, n))))
    ends = list(accumulate(map(len, pieces)))
    return "".join(pieces), pieces, ends


def cut_after_vertex_list(text, pieces, ends):
    return text[:ends[pieces.index(',\n  "edges": ') - 1]]


def cut_after_full_edge_piece(text, pieces, ends):
    return text[:ends[pieces.index(',\n  "edges": ') + 1]]


def change_in_last_entries(text, pieces, ends):
    # the first digit of the last edge's stored label, which the walk ignores
    at = text.rindex('"label": ', 0, ends[-3]) + len('"label": ')
    return text[:at] + ("3" if text[at] == "1" else "1") + text[at + 1:]


def change_in_last_piece(text, pieces, ends):
    return text[:-1] + " "


PIECEWISE = {
    "one trailing byte": lambda text, pieces, ends: text + "x",
    "cut after the vertex list": cut_after_vertex_list,
    "cut after a full edge piece": cut_after_full_edge_piece,
    "one byte changed in the last entry piece": change_in_last_entries,
    "one byte changed in the last piece": change_in_last_piece,
}


@pytest.mark.parametrize("name", list(PIECEWISE))
def test_piecewise_compare_rejects(monkeypatch, name):
    # C8+P(2 * PIECE): two full pieces of vertices and of edges, and a short third
    text, pieces, ends = piece_ends(8, 2 * formats._PIECE)
    assert len(pieces) == 11
    other = PIECEWISE[name](text, pieces, ends)
    assert other != text
    assert _written_union(other) is None
    record = parse_record(other)
    monkeypatch.setattr(formats, "_written_union", lambda text: None)
    assert parse_record(other) == record
