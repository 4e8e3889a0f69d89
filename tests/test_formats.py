import json
import pytest
from hypothesis import given, strategies as st

from oddgraceful import (
    DocumentError,
    GraphTopology,
    MissingVertexLabelError,
    SearchStatus,
    algorithmic_labeling,
    build_union_graph,
    closed_form_labeling,
    exhaustive_search,
    validate_params,
    verify_odd_graceful,
)
from oddgraceful import formats
from oddgraceful.construction import force_params, min_path_length
from oddgraceful.formats import (
    document_to_json,
    labeling_document,
    parse_labeling_document,
    report_to_dict,
    to_csv,
    to_dot,
)
from oddgraceful.graphspec import parse_graph_spec, topology_from_spec
from oddgraceful.verification import edge_labels

GOLDEN_JSON = """\
{
  "graph": {
    "m": 4,
    "n": 3
  },
  "q": 6,
  "vertices": [
    {
      "id": "u1",
      "label": 0
    },
    {
      "id": "u2",
      "label": 11
    },
    {
      "id": "u3",
      "label": 2
    },
    {
      "id": "u4",
      "label": 7
    },
    {
      "id": "v1",
      "label": 1
    },
    {
      "id": "v2",
      "label": 4
    },
    {
      "id": "v3",
      "label": 3
    }
  ],
  "edges": [
    {
      "from": "u1",
      "to": "u2",
      "label": 11
    },
    {
      "from": "u2",
      "to": "u3",
      "label": 9
    },
    {
      "from": "u3",
      "to": "u4",
      "label": 5
    },
    {
      "from": "u1",
      "to": "u4",
      "label": 7
    },
    {
      "from": "v1",
      "to": "v2",
      "label": 3
    },
    {
      "from": "v2",
      "to": "v3",
      "label": 1
    }
  ]
}
"""

GOLDEN_DOT = """\
graph G {
  u1 [label="u1:0"];
  u2 [label="u2:11"];
  u3 [label="u3:2"];
  u4 [label="u4:7"];
  v1 [label="v1:1"];
  v2 [label="v2:4"];
  v3 [label="v3:3"];
  u1 -- u2 [label=11];
  u2 -- u3 [label=9];
  u3 -- u4 [label=5];
  u1 -- u4 [label=7];
  v1 -- v2 [label=3];
  v2 -- v3 [label=1];
}
"""

GOLDEN_CSV = """\
vertex,label
u1,0
u2,11
u3,2
u4,7
v1,1
v2,4
v3,3
edge,from,to,label
e1,u1,u2,11
e2,u2,u3,9
e3,u3,u4,5
e4,u1,u4,7
e5,v1,v2,3
e6,v2,v3,1
"""


@pytest.fixture(scope="module")
def c4p3():
    topology = build_union_graph(4, 3)
    labeling = closed_form_labeling(validate_params(4, 3))
    return topology, labeling


class TestGoldenOutputs:
    def test_json(self, c4p3):
        assert document_to_json(*c4p3) == GOLDEN_JSON

    def test_dot(self, c4p3):
        assert to_dot(*c4p3) == GOLDEN_DOT

    def test_csv(self, c4p3):
        assert to_csv(*c4p3) == GOLDEN_CSV

    def test_byte_identical_across_runs(self, c4p3):
        for render in (to_dot, to_csv):
            assert render(*c4p3) == render(*c4p3)
        first = document_to_json(*c4p3)
        second = document_to_json(*c4p3)
        assert first == second

    # each writer's pieces raise at the first, before generate opens any file
    @pytest.mark.parametrize(
        "render",
        [
            document_to_json, lambda *args: next(formats.document_pieces(*args)), to_dot, to_csv,
            lambda *args: next(formats.dot_pieces(*args)),
            lambda *args: next(formats.csv_pieces(*args)),
        ],
        ids=["document_to_json", "document_pieces", "to_dot", "to_csv", "dot_pieces", "csv_pieces"],
    )
    @pytest.mark.parametrize("length", [0, 3, 8])
    def test_labeling_of_the_wrong_length(self, c4p3, render, length):
        topology, labeling = c4p3
        with pytest.raises(MissingVertexLabelError, match=f"has {length} labels for 7 "):
            render(topology, (labeling + (13,))[:length])

    @pytest.mark.parametrize("form", list(formats.WRITERS))
    def test_a_short_labeling_is_refused_before_any_name(self, form):
        # at n = 10^9 the name list alone would take tens of GB
        with pytest.raises(MissingVertexLabelError, match="has 3 labels for 1000000008 "):
            next(formats.WRITERS[form](build_union_graph(8, 10**9), (0, 1, 2)))


def reference_document(topology, labeling):
    """The document as one dict per vertex and per edge, built apart from
    the writer, so that it can check the writer's bytes."""
    names = topology.names
    induced = edge_labels(topology, labeling)
    return {
        "graph": {"m": topology.m, "n": topology.n},
        "q": topology.q,
        "vertices": [{"id": name, "label": label} for name, label in zip(names, labeling)],
        "edges": [
            {"from": names[a], "to": names[b], "label": value}
            for (a, b), value in zip(topology.edges, induced)
        ],
    }


def with_item(values, index, value):
    return values[:index] + (value,) + values[index + 1:]


SEARCH_FOUND = ("C4+P2", "C6+P2", "C8+P3", "C8+P4", "C8+P5", "C10+P5", "C12+P4", "C4+C4")

# each value stands in every field of its own type; json.dumps raises
# ValueError on the 5,000-digit int, so the writer must too
SLOT_VALUES = {
    "negative": -1,
    "5000-digits": 10**4999,
    "empty": "",
    "escapes": 'a"b\\c\nd',
    "non-ascii": "\u00fcber \u2603 \U0001f600",
}


class TestJsonBytes:
    """``document_to_json`` writes the bytes of ``json.dumps(document, indent=2)``
    for the reference document, and ``labeling_document`` parses to it."""

    def assert_same_document(self, topology, labeling):
        document = reference_document(topology, labeling)
        try:
            expected = json.dumps(document, indent=2) + "\n"
        except ValueError as exc:
            for writer in (document_to_json, labeling_document):
                with pytest.raises(ValueError) as excinfo:
                    writer(topology, labeling)
                assert repr(excinfo.value) == repr(exc)
            return
        assert document_to_json(topology, labeling) == expected
        assert labeling_document(topology, labeling) == document

    # C40+P10001 has q = 10,040
    @pytest.mark.parametrize("method", [closed_form_labeling, algorithmic_labeling])
    @pytest.mark.parametrize("m, n", [(4, 3), (6, 3), (8, 7), (12, 11), (40, 10_001)])
    def test_in_range_unions(self, method, m, n):
        self.assert_same_document(build_union_graph(m, n), method(validate_params(m, n)))

    @pytest.mark.parametrize("method", [closed_form_labeling, algorithmic_labeling])
    @pytest.mark.parametrize("m, n", [(4, 1), (6, 2), (8, 3), (10, 6), (12, 1)])
    def test_forced_below_bound_unions(self, method, m, n):
        self.assert_same_document(build_union_graph(m, n), method(force_params(m, n)))

    @pytest.mark.parametrize("spec", SEARCH_FOUND)
    def test_search_certificates(self, spec):
        topology = topology_from_spec(parse_graph_spec(spec))
        outcome = exhaustive_search(topology)
        assert outcome.status is SearchStatus.FOUND
        self.assert_same_document(topology, outcome.labeling)

    @pytest.mark.parametrize("value", SLOT_VALUES.values(), ids=SLOT_VALUES.keys())
    def test_any_value_in_any_field(self, c4p3, value):
        topology, labeling = c4p3
        if type(value) is int:
            # every label holds an int; m and n are a union's checked sizes, and q
            # and the edge labels follow from them
            cases = [(topology, with_item(labeling, i, value)) for i in range(len(labeling))]
        else:
            # every id is a name, and so is every from and to
            cases = [
                (GraphTopology(with_item(topology.names, i, value), topology.edges), labeling)
                for i in range(len(topology.names))
            ]
        assert len(cases) == 7
        for case in cases:
            self.assert_same_document(*case)

    def test_empty_lists(self):
        self.assert_same_document(GraphTopology(names=(), edges=()), ())


PIECE = formats._PIECE
# entry or line counts around one and two pieces, and around 4,096 and
# 8,192, four and eight pieces, where a list splits after several full pieces
COUNTS = [PIECE - 1, PIECE, PIECE + 1, 2 * PIECE, 4095, 4096, 4097, 8192]


def union_of(vertices):
    n = vertices - 4
    return build_union_graph(4, n), closed_form_labeling(validate_params(4, n))


def free_path(vertices):
    names = tuple(f"w{i}" for i in range(1, vertices + 1))
    edges = tuple((i, i + 1) for i in range(vertices - 1))
    return GraphTopology(names=names, edges=edges), tuple(range(vertices))


class TestPieces:
    """The document's bytes where its lists split into pieces."""

    @pytest.mark.parametrize("graph", [union_of, free_path], ids=["union", "free"])
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("entries", ["vertices", "edges"])
    def test_bytes_at_piece_boundaries(self, graph, count, entries):
        # a union and a path have one edge fewer than vertices
        topology, labeling = graph(count if entries == "vertices" else count + 1)
        assert len(getattr(topology, "names" if entries == "vertices" else "edges")) == count
        expected = json.dumps(reference_document(topology, labeling), indent=2) + "\n"
        assert document_to_json(topology, labeling) == expected

    @pytest.mark.parametrize("graph", [union_of(7), free_path(2)], ids=["union", "free"])
    def test_empty_edge_list(self, graph):
        topology, labeling = GraphTopology(graph[0].names, ()), graph[1]
        expected = json.dumps(reference_document(topology, labeling), indent=2) + "\n"
        assert document_to_json(topology, labeling) == expected

    def test_pieces_hold_at_most_piece_entries(self):
        topology, labeling = union_of(2 * PIECE + 3)
        pieces = list(formats.document_pieces(topology, labeling))
        entries = [piece.count("    {\n") for piece in pieces]
        # header, vertices, edges and the closings
        assert entries == [0, PIECE, PIECE, 3, 0, 0, PIECE, PIECE, 2, 0, 0]
        assert "".join(pieces) == document_to_json(topology, labeling)


def reference_dot(topology, labeling):
    """DOT text written line by line, apart from the writer."""
    names = topology.names
    text = "graph G {\n"
    for name, label in zip(names, labeling):
        text += '  %s [label="%s:%d"];\n' % (name, name, label)
    for (a, b), value in zip(topology.edges, edge_labels(topology, labeling)):
        text += "  %s -- %s [label=%d];\n" % (names[a], names[b], value)
    return text + "}\n"


def reference_csv(topology, labeling):
    """CSV text written line by line, apart from the writer."""
    names = topology.names
    text = "vertex,label\n"
    for name, label in zip(names, labeling):
        text += "%s,%d\n" % (name, label)
    text += "edge,from,to,label\n"
    edges = zip(topology.edges, edge_labels(topology, labeling))
    for index, ((a, b), value) in enumerate(edges, start=1):
        text += "e%d,%s,%s,%d\n" % (index, names[a], names[b], value)
    return text


TEXT_WRITERS = {
    "dot": (formats.dot_pieces, to_dot, reference_dot),
    "csv": (formats.csv_pieces, to_csv, reference_csv),
}


class TestTextPieces:
    """DOT and CSV where their lines split into pieces: the pieces join to the
    reference text, and none holds more than ``_PIECE`` lines."""

    def assert_pieces(self, form, topology, labeling):
        pieces_of, join, reference = TEXT_WRITERS[form]
        pieces = list(pieces_of(topology, labeling))
        expected = reference(topology, labeling)
        assert "".join(pieces) == expected
        assert join(topology, labeling) == expected
        assert all(piece.endswith("\n") for piece in pieces)
        assert max(piece.count("\n") for piece in pieces) <= PIECE

    @pytest.mark.parametrize("form", list(TEXT_WRITERS))
    @pytest.mark.parametrize("graph", [union_of, free_path], ids=["union", "free"])
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("entries", ["vertices", "edges"])
    def test_bytes_at_piece_boundaries(self, form, graph, count, entries):
        # a union and a path have one edge fewer than vertices
        topology, labeling = graph(count if entries == "vertices" else count + 1)
        assert len(getattr(topology, "names" if entries == "vertices" else "edges")) == count
        self.assert_pieces(form, topology, labeling)

    @pytest.mark.parametrize("form", list(TEXT_WRITERS))
    @pytest.mark.parametrize("graph", [union_of(7), free_path(2)], ids=["union", "free"])
    def test_empty_edge_list(self, form, graph):
        self.assert_pieces(form, GraphTopology(graph[0].names, ()), graph[1])

    @pytest.mark.parametrize("form", list(TEXT_WRITERS))
    def test_pieces_hold_at_most_piece_lines(self, form):
        topology, labeling = union_of(2 * PIECE + 3)
        pieces = list(TEXT_WRITERS[form][0](topology, labeling))
        # 4 * PIECE + 7 lines: the sections run on across pieces, and only the last is short
        assert [piece.count("\n") for piece in pieces] == [PIECE] * 4 + [7]


class TestRoundTrip:
    def test_json_round_trip(self, c4p3):
        topology, labeling = c4p3
        text = document_to_json(topology, labeling)
        parsed_topology, parsed_labeling = parse_labeling_document(text)
        assert parsed_topology == topology
        assert parsed_labeling == labeling
        assert verify_odd_graceful(parsed_topology, parsed_labeling).is_odd_graceful

    @pytest.mark.parametrize("m, n", [(4, 3), (6, 3), (8, 7), (12, 11)])
    def test_round_trip_across_instances(self, m, n):
        topology = build_union_graph(m, n)
        labeling = closed_form_labeling(validate_params(m, n))
        text = document_to_json(topology, labeling)
        parsed_topology, parsed_labeling = parse_labeling_document(text)
        assert verify_odd_graceful(parsed_topology, parsed_labeling).is_odd_graceful

    @given(
        m=st.integers(min_value=2, max_value=20).map(lambda h: 2 * h),
        data=st.data(),
    )
    def test_round_trip_everywhere_in_sweep_range(self, m, data):
        n = data.draw(st.integers(min_value=min_path_length(m), max_value=200))
        topology = build_union_graph(m, n)
        labeling = closed_form_labeling(validate_params(m, n))
        text = document_to_json(topology, labeling)
        parsed_topology, parsed_labeling = parse_labeling_document(text)
        assert parsed_topology == topology
        assert verify_odd_graceful(parsed_topology, parsed_labeling).is_odd_graceful


class TestDocumentErrors:
    def test_truncated_json_reports_location(self, c4p3):
        text = document_to_json(*c4p3)[:40]
        with pytest.raises(DocumentError, match="line"):
            parse_labeling_document(text)

    def test_root_must_be_object(self):
        with pytest.raises(DocumentError, match="root"):
            parse_labeling_document("[1, 2]")

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000], ids=["array", "object"])
    def test_nested_too_deeply(self, text):
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse_labeling_document(text)

    def test_integer_too_large(self):
        # json.loads raises a plain ValueError past the interpreter's digit limit
        text = '{"graph": {"m": 4, "n": 3}, "q": 1, "x": 1' + "0" * 5000 + "}"
        with pytest.raises(DocumentError) as excinfo:
            parse_labeling_document(text)
        assert str(excinfo.value) == "invalid JSON: integer too large"

    def test_q_mismatch(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["q"] = 5
        with pytest.raises(DocumentError, match="q=5"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    def test_duplicate_vertex_id(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][1]["id"] = "u1"
        with pytest.raises(DocumentError, match="duplicate vertex id"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    def test_unknown_edge_endpoint(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["edges"][0]["to"] = "v9"
        with pytest.raises(DocumentError, match="unknown vertex"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    def test_self_loop(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["edges"][0]["to"] = "u1"
        with pytest.raises(DocumentError, match="self-loop"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    def test_negative_label(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][0]["label"] = -1
        with pytest.raises(DocumentError, match="non-negative"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    def test_boolean_label_rejected(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][0]["label"] = True
        with pytest.raises(DocumentError, match="expected an integer"):
            parse_labeling_document(json.dumps(doc))

    def test_malformed_vertex_id(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][0]["id"] = "z1"
        with pytest.raises(DocumentError, match="malformed vertex id"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    def test_unknown_edge_endpoint_even_if_malformed(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["edges"][0]["to"] = "z1"
        with pytest.raises(DocumentError, match="unknown vertex"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")

    @pytest.mark.parametrize(
        "where, index, entry, error",
        [
            ("vertices", 0, {"id": "z1", "label": True}, "vertices[0]: malformed vertex id 'z1'"),
            ("vertices", 0, {}, "vertices[0]: missing 'id'"),
            (
                "vertices", 1, {"id": "u1", "label": -1},
                "vertices[1]: label must be non-negative, got -1",
            ),
            (
                "edges", 0, {"from": 1, "label": 11},
                "edges[0]: expected a vertex id string, got 1",
            ),
            ("edges", 0, {"from": "v9", "to": "v9", "label": 0}, "edges[0]: self-loop at v9"),
            (
                "edges", 1, {"from": "u2", "to": "u1", "label": 11},
                "edges[1]: duplicate edge u2-u1",
            ),
        ],
        ids=[
            "malformed-id-bool-label",
            "no-id-no-label",
            "duplicate-id-negative-label",
            "int-from-no-to",
            "self-loop-unknown-endpoint",
            "duplicate-reversed-edge",
        ],
    )
    def test_first_failed_check_wins(self, c4p3, where, index, entry, error):
        # each entry breaks two checks; the error names the one checked first
        doc = labeling_document(*c4p3)
        doc[where][index] = entry
        with pytest.raises(DocumentError) as excinfo:
            parse_labeling_document(json.dumps(doc))
        assert str(excinfo.value) == error

    @pytest.mark.parametrize("graph", [{"m": 4, "n": 3}, {"m": 1, "n": 1}, {"m": 0, "n": 2}])
    def test_graph_sizes_must_match_topology(self, graph):
        # a valid labeling of one edge, which is no C_m + P_n at all
        doc = {
            "graph": graph,
            "q": 1,
            "vertices": [{"id": "u1", "label": 0}, {"id": "v1", "label": 1}],
            "edges": [{"from": "u1", "to": "v1", "label": 1}],
        }
        with pytest.raises(DocumentError, match=f"m={graph['m']}"):
            parse_labeling_document(json.dumps(doc, indent=2) + "\n")
        doc["graph"] = {"m": 0, "n": 0}
        topology, labeling = parse_labeling_document(json.dumps(doc, indent=2) + "\n")
        assert verify_odd_graceful(topology, labeling).is_odd_graceful

    def test_stored_edge_labels_are_ignored(self, c4p3):
        # edge labels are derived data: tampering with them alone cannot
        # change the verdict, only vertex labels matter
        doc = labeling_document(*c4p3)
        doc["edges"][0]["label"] = 999
        topology, labeling = parse_labeling_document(json.dumps(doc, indent=2) + "\n")
        assert verify_odd_graceful(topology, labeling).is_odd_graceful


class TestReportDict:
    def test_passing_report(self, c4p3):
        topology, labeling = c4p3
        report = verify_odd_graceful(topology, labeling)
        payload = report_to_dict(report, topology.q)
        assert payload == {"is_odd_graceful": True, "q": 6, "violations": []}

    def test_violation_payloads(self):
        from oddgraceful.graphs import build_free_graph

        triangle = build_free_graph([(1, 2), (2, 3), (3, 1)])
        labeling = (0, 0, 7)
        report = verify_odd_graceful(triangle, labeling)
        payload = report_to_dict(report, triangle.q)
        kinds = [violation["kind"] for violation in payload["violations"]]
        assert kinds == [
            "VertexLabelOutOfRange",
            "DuplicateVertexLabel",
            "EdgeLabelEven",
            "DuplicateEdgeLabel",
            "EdgeLabelSetIncomplete",
        ]
        written = json.loads(json.dumps(payload))  # tuples are written as JSON lists
        assert written["violations"][1]["vertices"] == ["w1", "w2"]
        assert payload["violations"][3]["label"] == 7
        assert written["violations"][4]["missing"] == [1, 3, 5]
