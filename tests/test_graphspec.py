import pytest

from oddgraceful import (
    CycleTooSmallError,
    DocumentError,
    EmptyGraphError,
    GraphSpecError,
    PathTooShortError,
)
from oddgraceful.graphspec import (
    parse_edge_list,
    parse_graph_spec,
    topology_from_spec,
    union_form,
)


class TestParseGraphSpec:
    def test_cycle_plus_path(self):
        spec = parse_graph_spec("C8+P12")
        assert spec == (("C", 8), ("P", 12))
        assert union_form(spec) == (8, 12)

    def test_single_cycle(self):
        spec = parse_graph_spec("C4")
        assert len(spec) == 1
        assert union_form(spec) is None

    def test_two_cycles_parse_fine(self):
        spec = parse_graph_spec("C4+C4")
        assert len(spec) == 2
        assert union_form(spec) is None

    def test_path_first_union_form(self):
        assert union_form(parse_graph_spec("P3+C4")) == (4, 3)

    def test_file_term(self):
        spec = parse_graph_spec("@graph.txt+C4")
        assert spec[0] == ("@", "graph.txt")

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("", 0),
            ("C", 1),
            ("C+P3", 1),
            ("C4+", 3),
            ("X4", 0),
            ("C4 +P3", 2),
            ("C4+P3+", 6),
            ("C0", 1),
            ("@", 1),
            ("C4P3", 2),
        ],
    )
    def test_syntax_errors_carry_offset(self, text, offset):
        with pytest.raises(GraphSpecError) as excinfo:
            parse_graph_spec(text)
        assert excinfo.value.offset == offset

    def test_oversized_integer_rejected(self):
        with pytest.raises(GraphSpecError) as excinfo:
            parse_graph_spec("C" + "9" * 30)
        assert "too large" in str(excinfo.value)


class TestParseEdgeList:
    def test_pairs_comments_blanks(self):
        text = "# triangle\n1 2\n\n2 3  # closing\n3 1\n"
        assert parse_edge_list(text) == [(1, 2), (2, 3), (3, 1)]

    def test_bad_arity(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_edge_list("1 2 3\n")

    def test_non_integer(self):
        with pytest.raises(DocumentError, match="line 2"):
            parse_edge_list("1 2\na b\n")

    def test_non_positive(self):
        with pytest.raises(DocumentError, match="positive"):
            parse_edge_list("0 2\n")

    # int() reads all three: a digit-group underscore, a sign, ARABIC-INDIC DIGIT THREE
    @pytest.mark.parametrize("index", ["1_0", "+3", "\u0663"])
    def test_non_decimal_index_rejected(self, index):
        with pytest.raises(DocumentError, match="line 2: vertex indices must be integers"):
            parse_edge_list(f"1 2\n{index} 2\n")

    def test_oversized_index_rejected(self):
        # int() raises a plain ValueError past the interpreter's digit limit
        with pytest.raises(DocumentError) as excinfo:
            parse_edge_list("1 2\n3 " + "4" * 5000 + "\n")
        assert str(excinfo.value) == "line 2: integer too large"

    def test_leading_zeros_are_decimal(self):
        assert parse_edge_list("01 002\n") == [(1, 2)]


class TestTopologyFromSpec:
    def test_single_cycle(self):
        topology = topology_from_spec(parse_graph_spec("C3"))
        assert topology.q == 3
        assert len(topology.names) == 3

    def test_disjoint_cycles(self):
        topology = topology_from_spec(parse_graph_spec("C4+C4"))
        assert topology.q == 8
        assert len(topology.names) == 8

    def test_cycle_plus_path(self):
        topology = topology_from_spec(parse_graph_spec("C4+P3"))
        assert topology.q == 6
        assert len(topology.names) == 7

    def test_degenerate_cycle_rejected(self):
        with pytest.raises(CycleTooSmallError):
            topology_from_spec(parse_graph_spec("C2"))

    def test_single_vertex_path_rejected(self):
        with pytest.raises(PathTooShortError):
            topology_from_spec(parse_graph_spec("C4+P1"))

    def test_file_term_keeps_file_numbers_past_offset(self, tmp_path):
        listing = tmp_path / "edges.txt"
        listing.write_text("10 30\n30 20\n")
        topology = topology_from_spec(parse_graph_spec(f"P2+@{listing}"))
        # P2 takes w1-w2; the file's 10, 20, 30 shift past 2 to w12, w22, w32
        assert len(topology.names) == 5
        assert topology.q == 3

    def test_file_term_vertex_names(self, tmp_path):
        listing = tmp_path / "gap.txt"
        listing.write_text("10 30\n30 20\n")
        names = topology_from_spec(parse_graph_spec(f"P2+@{listing}")).names
        assert names == ("w1", "w2", "w12", "w22", "w32")
        # a later term starts past the file's largest number, 2 + 30
        names = topology_from_spec(parse_graph_spec(f"P2+@{listing}+P2")).names
        assert names[-2:] == ("w33", "w34")

    def test_unreadable_file_is_a_parse_error(self, tmp_path):
        missing = tmp_path / "missing.txt"
        with pytest.raises(DocumentError, match="^cannot read "):
            topology_from_spec(parse_graph_spec(f"@{missing}"))

    def test_empty_file_rejected(self, tmp_path):
        listing = tmp_path / "empty.txt"
        listing.write_text("# nothing\n")
        with pytest.raises(EmptyGraphError):
            topology_from_spec(parse_graph_spec(f"@{listing}"))
