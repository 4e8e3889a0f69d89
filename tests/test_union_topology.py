"""The union topology computes its names and edges from (m, n) alone.

These tests pin the computed union to the explicit name and edge lists, the
edge labels taken through its ``islice``s to the labels over those edges, and
the text written from its name stems and indices to the text of its stored
names.
A union is the named tuple (m, n): equality, hash, repr, pickle, ``copy``
and ``_replace`` read and check only those two numbers, and so does
unpickling or copying a union forged past its check.
"""

import copy
import pickle
import random

import pytest

from oddgraceful import (
    CycleTooSmallError,
    GraphTopology,
    MissingVertexLabelError,
    OddCycleError,
    PathTooShortError,
    SearchStatus,
    build_union_graph,
    exhaustive_search,
    verify_odd_graceful,
)
from oddgraceful.construction import closed_form_labeling, force_params
from oddgraceful.formats import document_to_json, to_csv, to_dot
from oddgraceful.graphs import UnionTopology
from oddgraceful.verification import edge_labels

SIZES = [(m, n) for m in range(4, 41, 2) for n in range(1, 201)]


def explicit_union(m, n):
    """The names and edges the builder stored, written out one by one."""
    names = [f"u{i}" for i in range(1, m + 1)] + [f"v{j}" for j in range(1, n + 1)]
    edges = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    edges += [(j, j + 1) for j in range(m, m + n - 1)]
    return tuple(names), tuple(edges)


def test_names_and_edges_are_the_explicit_lists():
    for m, n in SIZES:
        topology = build_union_graph(m, n)
        names, edges = explicit_union(m, n)
        assert (topology.names, topology.edges) == (names, edges), (m, n)
        assert (topology.p, topology.q) == (len(names), len(edges)), (m, n)


def test_edge_labels_are_the_differences_over_the_explicit_edges():
    rng = random.Random(27)
    for m, n in SIZES:
        topology = build_union_graph(m, n)
        _, edges = explicit_union(m, n)
        for _ in range(2):
            labeling = tuple(rng.randrange(-5, 4 * (m + n)) for _ in range(m + n))
            expected = tuple(abs(labeling[a] - labeling[b]) for a, b in edges)
            assert edge_labels(topology, labeling) == expected, (m, n, labeling)


def test_a_labeling_of_the_wrong_length_is_refused():
    for m, n in SIZES:
        topology = build_union_graph(m, n)
        for length in (0, m + n - 1, m + n + 1):
            with pytest.raises(MissingVertexLabelError):
                edge_labels(topology, tuple(range(length)))


def test_search_finds_a_verified_certificate():
    topology = build_union_graph(4, 3)
    outcome = exhaustive_search(topology)
    assert outcome.status is SearchStatus.FOUND
    assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


def test_the_union_stores_only_its_sizes():
    topology = build_union_graph(8, 10**9)
    assert type(topology) is UnionTopology
    assert topology._asdict() == {"m": 8, "n": 10**9}
    assert not hasattr(topology, "__dict__")  # nothing stored beside the two fields
    assert (topology.p, topology.q) == (8 + 10**9, 8 + 10**9 - 1)


def test_value_semantics_read_only_the_sizes():
    # at n = 10^9 any of these that built the names or edges would not finish
    topology = build_union_graph(8, 10**9)
    assert topology == build_union_graph(8, 10**9)
    assert topology != build_union_graph(8, 10**9 + 1)
    assert hash(topology) == hash(build_union_graph(8, 10**9))
    assert repr(topology) == "UnionTopology(m=8, n=1000000000)"
    assert pickle.loads(pickle.dumps(topology)) == topology
    assert GraphTopology._fields == ("names", "edges")


# A changed union is built again from its new sizes, so its names and edges
# are the explicit lists of those sizes.
@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"m": 6}, id="change0"),
        pytest.param({"n": 5}, id="change1"),
        pytest.param({}, id="change4"),
    ],
)
def test_replace_gives_a_topology_with_stored_tuples(change):
    union = build_union_graph(4, 3)
    changed = union._replace(**change)
    m, n = change.get("m", 4), change.get("n", 3)
    assert type(changed) is UnionTopology
    assert changed == build_union_graph(m, n)
    assert (changed.names, changed.edges) == explicit_union(m, n)


def test_replace_checks_the_stored_tuples():
    union = build_union_graph(4, 3)
    with pytest.raises(OddCycleError):
        union._replace(m=3)
    with pytest.raises(CycleTooSmallError):
        union._replace(m=0)
    with pytest.raises(PathTooShortError):
        union._replace(n=0)


@pytest.mark.parametrize("field", ["names", "edges"])
def test_replace_refuses_names_and_edges(field):
    with pytest.raises(ValueError, match=f"unexpected field names: \\['{field}'\\]"):
        build_union_graph(4, 3)._replace(**{field: ()})


@pytest.mark.parametrize(
    "remake",
    [
        pytest.param(lambda union: pickle.loads(pickle.dumps(union)), id="pickle"),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ],
)
def test_a_forged_union_is_checked_when_remade(remake):
    forged = tuple.__new__(UnionTopology, (3, 5))  # past the check in __new__
    with pytest.raises(OddCycleError):
        remake(forged)


# The writers format a union's names from stems and indices; a free graph of
# the same names and edges writes its stored names. Both write the same text,
# apart from the JSON header's sizes.
@pytest.mark.parametrize("m", range(4, 41, 2))
def test_written_names_are_the_stored_names(m):
    for n in range(1, 61):
        union = build_union_graph(m, n)
        stored = GraphTopology(union.names, union.edges)
        labeling = closed_form_labeling(force_params(m, n))
        assert to_dot(union, labeling) == to_dot(stored, labeling), (m, n)
        assert to_csv(union, labeling) == to_csv(stored, labeling), (m, n)
        sizes = '"m": {},\n    "n": {}\n'
        expected = document_to_json(stored, labeling).replace(sizes.format(0, 0), sizes.format(m, n), 1)
        assert document_to_json(union, labeling) == expected, (m, n)


class Entries:
    """A column that can only be read from its start, as ``ends`` reads a union's."""

    def __init__(self, entries):
        self.entries = entries

    def __iter__(self):
        return iter(self.entries)


def test_ends_read_the_column_without_indexing_it():
    for m, n in SIZES[::7]:
        topology = build_union_graph(m, n)
        column = tuple(range(100, 100 + m + n))
        expected = tuple(map(tuple, topology.ends(column)))
        assert tuple(map(tuple, topology.ends(Entries(column)))) == expected, (m, n)
        _, edges = explicit_union(m, n)
        assert expected == tuple(tuple(column[edge[end]] for edge in edges) for end in (0, 1))
