import pytest
from hypothesis import given, strategies as st

from oddgraceful import (
    MissingVertexLabelError,
    build_union_graph,
    closed_form_labeling,
    validate_params,
    verify_odd_graceful,
)
from oddgraceful.construction import force_params, min_path_length
from oddgraceful.graphs import build_free_graph
from oddgraceful.verification import (
    DuplicateEdgeLabel,
    DuplicateVertexLabel,
    EdgeLabelEven,
    EdgeLabelSetIncomplete,
    VertexLabelOutOfRange,
    edge_labels,
)

TRIANGLE = build_free_graph([(1, 2), (2, 3), (3, 1)])


class TestEdgeLabels:
    def test_union_instance(self):
        topology = build_union_graph(4, 3)
        labeling = closed_form_labeling(validate_params(4, 3))
        assert edge_labels(topology, labeling) == (11, 9, 5, 7, 3, 1)

    def test_constant_labeling_gives_zeroes(self):
        labeling = (5, 5, 5)
        assert edge_labels(TRIANGLE, labeling) == (0, 0, 0)

    def test_single_edge(self):
        topology = build_free_graph([(1, 2)])
        assert edge_labels(topology, (0, 1)) == (1,)

    def test_missing_vertex_raises(self):
        with pytest.raises(MissingVertexLabelError):
            edge_labels(TRIANGLE, (0, 1))


class TestVerify:
    def test_fig_instance_passes(self):
        topology = build_union_graph(8, 12)
        report = verify_odd_graceful(topology, closed_form_labeling(validate_params(8, 12)))
        assert report.is_odd_graceful
        assert report.violations == ()

    def test_triangle_0_1_2(self):
        report = verify_odd_graceful(TRIANGLE, (0, 1, 2))
        assert not report.is_odd_graceful
        kinds = [type(violation) for violation in report.violations]
        assert EdgeLabelEven in kinds
        assert DuplicateEdgeLabel in kinds
        assert EdgeLabelSetIncomplete in kinds
        dup = next(v for v in report.violations if isinstance(v, DuplicateEdgeLabel))
        assert dup.label == 1 and len(dup.edges) == 2
        even = next(v for v in report.violations if isinstance(v, EdgeLabelEven))
        assert even.label == 2
        incomplete = next(v for v in report.violations if isinstance(v, EdgeLabelSetIncomplete))
        assert incomplete.missing == (3, 5)

    def test_forced_out_of_range_duplicate(self):
        topology = build_union_graph(10, 6)
        report = verify_odd_graceful(topology, closed_form_labeling(force_params(10, 6)))
        assert not report.is_odd_graceful
        duplicates = [v for v in report.violations if isinstance(v, DuplicateVertexLabel)]
        assert len(duplicates) == 1
        assert duplicates[0].label == 8
        assert duplicates[0].vertices == ("u9", "v6")

    def test_out_of_range_label_reported(self):
        labeling = (0, 1, 99)
        report = verify_odd_graceful(TRIANGLE, labeling)
        out_of_range = [v for v in report.violations if isinstance(v, VertexLabelOutOfRange)]
        assert out_of_range == [VertexLabelOutOfRange(vertex="w3", label=99, upper=5)]

    def test_missing_vertex_raises(self):
        with pytest.raises(MissingVertexLabelError):
            verify_odd_graceful(TRIANGLE, (0,))

    def test_all_violations_reported_not_just_first(self):
        # one bad label triggers range, duplicate, and edge findings together
        labeling = (0, 0, -2)
        report = verify_odd_graceful(TRIANGLE, labeling)
        kinds = {type(violation) for violation in report.violations}
        assert VertexLabelOutOfRange in kinds
        assert DuplicateVertexLabel in kinds
        assert EdgeLabelEven in kinds

    def test_violation_order_is_deterministic(self):
        labeling = (0, 0, -2)
        first = verify_odd_graceful(TRIANGLE, labeling)
        second = verify_odd_graceful(TRIANGLE, labeling)
        assert first == second


@st.composite
def valid_params_strategy(draw):
    m = 2 * draw(st.integers(min_value=2, max_value=16))
    n = draw(st.integers(min_value=min_path_length(m), max_value=120))
    return validate_params(m, n)


class TestVerifierProperties:
    @given(valid_params_strategy())
    def test_complement_closure(self, params):
        topology = build_union_graph(params.m, params.n)
        labeling = closed_form_labeling(params)
        mirrored = tuple(2 * topology.q - 1 - v for v in labeling)
        assert verify_odd_graceful(topology, mirrored).is_odd_graceful
        assert edge_labels(topology, mirrored) == edge_labels(topology, labeling)

    @given(valid_params_strategy(), st.integers(min_value=1, max_value=1000))
    def test_cycle_rotation_preserves_verdict(self, params, shift):
        # relabeling along a rotation of the cycle is an automorphism
        topology = build_union_graph(params.m, params.n)
        labeling = closed_form_labeling(params)
        m = params.m
        rotated = list(labeling)
        for i in range(1, m + 1):
            rotated[i - 1] = labeling[(i - 1 + shift) % m]
        assert verify_odd_graceful(topology, tuple(rotated)).is_odd_graceful

    @given(valid_params_strategy())
    def test_path_reversal_preserves_verdict(self, params):
        topology = build_union_graph(params.m, params.n)
        labeling = closed_form_labeling(params)
        n = params.n
        m = params.m
        reversed_path = list(labeling)
        for j in range(1, n + 1):
            reversed_path[m + j - 1] = labeling[m + n - j]
        assert verify_odd_graceful(topology, tuple(reversed_path)).is_odd_graceful

    def test_odd_cycles_always_fail(self):
        # edge labels around a cycle sum to an even number, so an odd count
        # of odd labels is impossible: no assignment can ever pass
        for length in (3, 5):
            edges = [(i, i + 1) for i in range(1, length)] + [(length, 1)]
            topology = build_free_graph(edges)
            q = topology.q
            from itertools import permutations

            for labels in permutations(range(2 * q), length):
                labeling = labels
                assert not verify_odd_graceful(topology, labeling).is_odd_graceful
