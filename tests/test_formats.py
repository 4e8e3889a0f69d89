import pytest
from hypothesis import given, strategies as st

from oddgraceful import (
    DocumentError,
    build_union_graph,
    closed_form_labeling,
    validate_params,
    verify_odd_graceful,
)
from oddgraceful.construction import min_path_length
from oddgraceful.formats import (
    document_to_json,
    labeling_document,
    parse_labeling_document,
    report_to_dict,
    to_csv,
    to_dot,
)

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
        assert document_to_json(labeling_document(*c4p3)) == GOLDEN_JSON

    def test_dot(self, c4p3):
        assert to_dot(*c4p3) == GOLDEN_DOT

    def test_csv(self, c4p3):
        assert to_csv(*c4p3) == GOLDEN_CSV

    def test_byte_identical_across_runs(self, c4p3):
        for render in (to_dot, to_csv):
            assert render(*c4p3) == render(*c4p3)
        first = document_to_json(labeling_document(*c4p3))
        second = document_to_json(labeling_document(*c4p3))
        assert first == second


class TestRoundTrip:
    def test_json_round_trip(self, c4p3):
        topology, labeling = c4p3
        text = document_to_json(labeling_document(topology, labeling))
        parsed_topology, parsed_labeling = parse_labeling_document(text)
        assert parsed_topology == topology
        assert parsed_labeling == labeling
        assert verify_odd_graceful(parsed_topology, parsed_labeling).is_odd_graceful

    @pytest.mark.parametrize("m, n", [(4, 3), (6, 3), (8, 7), (12, 11)])
    def test_round_trip_across_instances(self, m, n):
        topology = build_union_graph(m, n)
        labeling = closed_form_labeling(validate_params(m, n))
        text = document_to_json(labeling_document(topology, labeling))
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
        text = document_to_json(labeling_document(topology, labeling))
        parsed_topology, parsed_labeling = parse_labeling_document(text)
        assert parsed_topology == topology
        assert verify_odd_graceful(parsed_topology, parsed_labeling).is_odd_graceful


class TestDocumentErrors:
    def test_truncated_json_reports_location(self, c4p3):
        text = document_to_json(labeling_document(*c4p3))[:40]
        with pytest.raises(DocumentError, match="line"):
            parse_labeling_document(text)

    def test_root_must_be_object(self):
        with pytest.raises(DocumentError, match="root"):
            parse_labeling_document("[1, 2]")

    def test_q_mismatch(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["q"] = 5
        with pytest.raises(DocumentError, match="q=5"):
            parse_labeling_document(document_to_json(doc))

    def test_duplicate_vertex_id(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][1]["id"] = "u1"
        with pytest.raises(DocumentError, match="duplicate vertex id"):
            parse_labeling_document(document_to_json(doc))

    def test_unknown_edge_endpoint(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["edges"][0]["to"] = "v9"
        with pytest.raises(DocumentError, match="unknown vertex"):
            parse_labeling_document(document_to_json(doc))

    def test_self_loop(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["edges"][0]["to"] = "u1"
        with pytest.raises(DocumentError, match="self-loop"):
            parse_labeling_document(document_to_json(doc))

    def test_negative_label(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][0]["label"] = -1
        with pytest.raises(DocumentError, match="non-negative"):
            parse_labeling_document(document_to_json(doc))

    def test_boolean_label_rejected(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][0]["label"] = True
        with pytest.raises(DocumentError, match="expected an integer"):
            parse_labeling_document(document_to_json(doc))

    def test_malformed_vertex_id(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["vertices"][0]["id"] = "z1"
        with pytest.raises(DocumentError, match="malformed vertex id"):
            parse_labeling_document(document_to_json(doc))

    def test_unknown_edge_endpoint_even_if_malformed(self, c4p3):
        doc = labeling_document(*c4p3)
        doc["edges"][0]["to"] = "z1"
        with pytest.raises(DocumentError, match="unknown vertex"):
            parse_labeling_document(document_to_json(doc))

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
            parse_labeling_document(document_to_json(doc))
        doc["graph"] = {"m": 0, "n": 0}
        topology, labeling = parse_labeling_document(document_to_json(doc))
        assert verify_odd_graceful(topology, labeling).is_odd_graceful

    def test_stored_edge_labels_are_ignored(self, c4p3):
        # edge labels are derived data: tampering with them alone cannot
        # change the verdict, only vertex labels matter
        doc = labeling_document(*c4p3)
        doc["edges"][0]["label"] = 999
        topology, labeling = parse_labeling_document(document_to_json(doc))
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
        assert payload["violations"][1]["vertices"] == ["w1", "w2"]
        assert payload["violations"][3]["label"] == 7
        assert payload["violations"][4]["missing"] == [1, 3, 5]
