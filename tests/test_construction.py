import pytest
from hypothesis import given, strategies as st

from oddgraceful import (
    CycleTooSmallError,
    OddCycleError,
    PathTooShortError,
    algorithmic_labeling,
    build_union_graph,
    closed_form_labeling,
    validate_params,
    verify_odd_graceful,
)
from oddgraceful.construction import (
    cycle_pass,
    force_params,
    init_markers,
    label_cycle_vertices,
    label_path_vertices,
    min_path_length,
    path_pass,
)
from oddgraceful.verification import edge_labels


def cycle_values(params):
    return list(label_cycle_vertices(params))


def path_values(params):
    return list(label_path_vertices(params))


@st.composite
def valid_mn(draw):
    m = 2 * draw(st.integers(min_value=2, max_value=20))
    n = draw(st.integers(min_value=min_path_length(m), max_value=200))
    return m, n


class TestValidateParams:
    def test_accepts_4_3(self):
        params = validate_params(4, 3)
        assert (params.q, params.k) == (6, 2)

    def test_rejects_odd_cycle(self):
        with pytest.raises(OddCycleError):
            validate_params(5, 3)

    def test_rejects_small_cycle(self):
        with pytest.raises(CycleTooSmallError):
            validate_params(2, 10)

    def test_rejects_8_6(self):
        with pytest.raises(PathTooShortError) as excinfo:
            validate_params(8, 6)
        assert excinfo.value.required == 7

    def test_rejects_10_6(self):
        with pytest.raises(PathTooShortError) as excinfo:
            validate_params(10, 6)
        assert excinfo.value.required == 7

    def test_minimum_lengths(self):
        # half-cycle even: n >= m-1; half-cycle odd: n >= m-3
        assert min_path_length(4) == 3
        assert min_path_length(6) == 3
        assert min_path_length(8) == 7
        assert min_path_length(10) == 7
        assert min_path_length(12) == 11

    def test_force_params_skips_path_bound_only(self):
        assert force_params(10, 6).q == 15
        with pytest.raises(OddCycleError):
            force_params(5, 6)
        with pytest.raises(PathTooShortError):
            force_params(10, 0)


class TestCycleLabels:
    def test_m4_n3(self):
        assert cycle_values(validate_params(4, 3)) == [0, 11, 2, 7]

    def test_m6_n3(self):
        assert cycle_values(validate_params(6, 3)) == [0, 15, 2, 13, 4, 7]

    def test_m10_n7(self):
        assert cycle_values(validate_params(10, 7)) == [0, 31, 2, 29, 4, 27, 6, 25, 8, 15]


class TestPathLabels:
    def test_m8_n7(self):
        assert path_values(validate_params(8, 7)) == [1, 14, 3, 10, 5, 8, 7]

    def test_m6_n3(self):
        assert path_values(validate_params(6, 3)) == [1, 6, 5]

    def test_m4_n3(self):
        assert path_values(validate_params(4, 3)) == [1, 4, 3]


class TestClosedForm:
    def test_m4_n3_full(self):
        params = validate_params(4, 3)
        topology = build_union_graph(4, 3)
        labeling = closed_form_labeling(params)
        assert list(labeling) == [0, 11, 2, 7, 1, 4, 3]
        assert edge_labels(topology, labeling) == (11, 9, 5, 7, 3, 1)

    def test_m6_n3_edges(self):
        params = validate_params(6, 3)
        topology = build_union_graph(6, 3)
        values = edge_labels(topology, closed_form_labeling(params))
        assert values == (15, 13, 11, 9, 3, 7, 5, 1)
        assert sorted(values) == list(range(1, 16, 2))

    def test_m8_n7_edges(self):
        params = validate_params(8, 7)
        topology = build_union_graph(8, 7)
        values = edge_labels(topology, closed_form_labeling(params))
        assert values == (27, 25, 23, 21, 19, 17, 9, 15, 13, 11, 7, 5, 3, 1)


class TestMarkers:
    @pytest.mark.parametrize(
        "m, n, expected",
        [(4, 3, (7, 5)), (6, 3, (7, 3)), (10, 7, (15, 7))],
    )
    def test_examples(self, m, n, expected):
        markers = init_markers(validate_params(m, n))
        assert (markers.active_vertex_label, markers.double_jump_edge_label) == expected

    @given(valid_mn())
    def test_odd_and_positive(self, mn):
        markers = init_markers(validate_params(*mn))
        assert markers.active_vertex_label % 2 == 1
        assert markers.double_jump_edge_label % 2 == 1
        assert markers.active_vertex_label > 0
        assert markers.double_jump_edge_label > 0


class TestPasses:
    def test_cycle_pass_matches_closed_form(self):
        for m, n in [(4, 3), (6, 3), (8, 7), (10, 7)]:
            params = validate_params(m, n)
            vertex_labels, _ = cycle_pass(params, init_markers(params))
            assert vertex_labels == label_cycle_vertices(params)

    def test_cycle_pass_double_jump_edge_m6(self):
        params = validate_params(6, 3)
        markers = init_markers(params)
        _, edge_values = cycle_pass(params, markers)
        # e5 = |f(u5) - f(u6)| = |4 - 7|
        assert edge_values[4] == 3 == markers.double_jump_edge_label

    def test_cycle_pass_closing_edge_m8(self):
        params = validate_params(8, 7)
        markers = init_markers(params)
        _, edge_values = cycle_pass(params, markers)
        assert edge_values[7] == 15 == markers.active_vertex_label

    def test_path_pass_skip_fires_immediately_for_m4(self):
        params = validate_params(4, 3)
        vertex_labels, edge_values = path_pass(params, init_markers(params))
        # tentative first edge value 5 collides with the double-jump value
        assert edge_values == (3, 1)
        assert vertex_labels[1] == 4
        assert vertex_labels[2] == 3

    def test_path_pass_skip_at_second_edge_for_m6(self):
        params = validate_params(6, 3)
        vertex_labels, edge_values = path_pass(params, init_markers(params))
        assert edge_values == (5, 1)
        assert vertex_labels[1] == 6
        assert vertex_labels[2] == 5

    def test_path_pass_sequence_m8_n7(self):
        params = validate_params(8, 7)
        _, edge_values = path_pass(params, init_markers(params))
        assert edge_values == (13, 11, 7, 5, 3, 1)

    def test_path_pass_matches_closed_form(self):
        for m, n in [(4, 3), (6, 5), (8, 7), (10, 8), (12, 11)]:
            params = validate_params(m, n)
            vertex_labels, _ = path_pass(params, init_markers(params))
            assert vertex_labels == label_path_vertices(params)


class TestRouteEquivalence:
    @pytest.mark.parametrize("m, n", [(4, 3), (10, 7)])
    def test_examples(self, m, n):
        params = validate_params(m, n)
        assert algorithmic_labeling(params) == closed_form_labeling(params)

    @given(valid_mn())
    def test_equivalence_everywhere(self, mn):
        params = validate_params(*mn)
        assert algorithmic_labeling(params) == closed_form_labeling(params)

    @given(valid_mn())
    def test_construction_verifies(self, mn):
        m, n = mn
        params = validate_params(m, n)
        topology = build_union_graph(m, n)
        report = verify_odd_graceful(topology, closed_form_labeling(params))
        assert report.is_odd_graceful, report.violations


class TestStructuralProperties:
    @given(valid_mn())
    def test_parity_pattern(self, mn):
        m, n = mn
        params = validate_params(m, n)
        cycle = label_cycle_vertices(params)
        path = label_path_vertices(params)
        for i in range(1, m + 1):
            assert cycle[i - 1] % 2 == (0 if i % 2 else 1)
        for i in range(1, n + 1):
            assert path[i - 1] % 2 == (1 if i % 2 else 0)

    @given(valid_mn())
    def test_all_labels_in_range(self, mn):
        params = validate_params(*mn)
        labeling = closed_form_labeling(params)
        assert all(0 <= value <= 2 * params.q - 1 for value in labeling)

    @given(valid_mn())
    def test_marker_claims(self, mn):
        m, n = mn
        params = validate_params(m, n)
        markers = init_markers(params)
        vertex_labels, edge_values = cycle_pass(params, markers)
        assert vertex_labels[m - 1] == markers.active_vertex_label
        assert edge_values[m - 2] == markers.double_jump_edge_label

    @given(valid_mn())
    def test_path_edge_label_sequence(self, mn):
        m, n = mn
        params = validate_params(m, n)
        q = params.q
        _, values = path_pass(params, init_markers(params))
        assert values[-1] == 1
        assert all(value % 2 == 1 for value in values)
        steps = [values[i] - values[i + 1] for i in range(len(values) - 1)]
        if m == 4:
            # the skip fires before the first edge, lowering the start instead
            assert values[0] == 2 * q - 2 * m - 1
            assert all(step == 2 for step in steps)
        else:
            assert values[0] == 2 * q - 2 * m + 1
            assert steps.count(4) == 1
            assert all(step in (2, 4) for step in steps)

    @given(valid_mn())
    def test_path_edge_formula_past_the_skip(self, mn):
        m, n = mn
        params = validate_params(m, n)
        q = params.q
        _, values = path_pass(params, init_markers(params))
        skip_position = params.k - 1  # 1-based edge index where the jump lands
        for j in range(skip_position, n):
            assert values[j - 1] == 2 * q - 2 * j - (2 * m - 1)
