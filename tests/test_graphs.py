import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from oddgraceful import (
    CycleTooSmallError,
    DocumentError,
    EmptyGraphError,
    GraphTopology,
    OddCycleError,
    PathTooShortError,
    SelfLoopError,
    build_union_graph,
    closed_form_labeling,
    validate_params,
)
from oddgraceful.formats import labeling_document, parse_labeling_document
from oddgraceful.graphs import build_free_graph


def c4p3_document():
    topology = build_union_graph(4, 3)
    return labeling_document(topology, closed_form_labeling(validate_params(4, 3)))


class TestVertexId:
    def test_str_rendering(self):
        assert build_union_graph(4, 12).names[0] == "u1"
        assert build_union_graph(4, 12).names[-1] == "v12"
        assert build_free_graph([(3, 4)]).names[0] == "w3"

    def test_parse_round_trip(self):
        document = c4p3_document()
        topology, _ = parse_labeling_document(json.dumps(document, indent=2) + "\n")
        assert list(topology.names) == [vertex["id"] for vertex in document["vertices"]]

    @pytest.mark.parametrize("text", ["", "u", "u0", "x3", "u-1", "u1x", "U1", "u01"])
    def test_parse_rejects_malformed(self, text):
        document = c4p3_document()
        document["vertices"][0]["id"] = text
        with pytest.raises(DocumentError, match="malformed vertex id"):
            parse_labeling_document(json.dumps(document, indent=2) + "\n")

    def test_canonical_order_is_cycle_then_path_then_free(self):
        names = build_union_graph(4, 2).names
        assert names.index("u4") < names.index("v1")
        assert build_free_graph([(9, 2), (2, 1)]).names == ("w1", "w2", "w9")


class TestBuildUnionGraph:
    def test_counts_4_3(self):
        topology = build_union_graph(4, 3)
        assert len(topology.names) == 7
        assert topology.q == len(topology.edges) == 6

    def test_counts_10_7(self):
        topology = build_union_graph(10, 7)
        assert len(topology.names) == 17
        assert topology.q == len(topology.edges) == 16

    def test_odd_cycle_rejected(self):
        with pytest.raises(OddCycleError):
            build_union_graph(5, 3)

    def test_small_cycle_rejected(self):
        with pytest.raises(CycleTooSmallError):
            build_union_graph(2, 3)

    def test_empty_path_rejected(self):
        with pytest.raises(PathTooShortError):
            build_union_graph(4, 0)

    def test_exact_edge_sets(self):
        topology = build_union_graph(6, 4)
        cycle_edges = [(i, i + 1) for i in range(5)] + [(0, 5)]
        path_edges = [(j, j + 1) for j in range(6, 9)]
        assert list(topology.edges) == cycle_edges + path_edges

    def test_wrap_edge_is_canonical(self):
        topology = build_union_graph(4, 1)
        assert topology.edges[3] == (0, 3)
        assert all(a < b for a, b in topology.edges)

    def test_vertex_order(self):
        topology = build_union_graph(4, 2)
        assert list(topology.names) == ["u1", "u2", "u3", "u4", "v1", "v2"]

    def test_repeated_builds_identical(self):
        assert build_union_graph(8, 9) == build_union_graph(8, 9)

    @given(
        m=st.integers(min_value=2, max_value=15).map(lambda h: 2 * h),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_degree_sequence(self, m, n):
        topology = build_union_graph(m, n)
        count = Counter(v for edge in topology.edges for v in edge)
        degrees = sorted(count[v] for v in range(len(topology.names)))
        if n == 1:
            assert degrees == [0] + [2] * m
        elif n == 2:
            assert degrees == [1, 1] + [2] * m
        else:
            assert degrees == [1, 1] + [2] * (m + n - 2)


class TestBuildFreeGraph:
    def test_triangle(self):
        topology = build_free_graph([(1, 2), (2, 3), (3, 1)])
        assert topology.q == 3
        assert topology.m == topology.n == 0
        assert all(name.startswith("w") for name in topology.names)

    def test_reversed_duplicate_collapses(self):
        topology = build_free_graph([(1, 2), (2, 1)])
        assert topology.q == 1
        assert topology.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_free_graph([(1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            build_free_graph([])

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            build_free_graph([(0, 1)])

    def test_vertices_are_sorted_distinct_endpoints(self):
        topology = build_free_graph([(5, 2), (2, 9)])
        assert topology.names == ("w2", "w5", "w9")


class TestTopologyInvariants:
    def test_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="duplicate vertex names in topology"):
            GraphTopology(names=("u1", "u1"), edges=((0, 1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            GraphTopology(names=("u1", "u2"), edges=((0, 1), (0, 1)))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            GraphTopology(names=("u1",), edges=((0, 1),))

    def test_rejects_non_canonical_edge(self):
        with pytest.raises(ValueError):
            GraphTopology(names=("u1", "u2"), edges=((1, 0),))
