"""The union topology computes its names and edges from (m, n) alone.

``build_union_graph`` used to store a name tuple and an edge-pair tuple.
These tests pin the computed union to those explicit lists, and the edge
labels taken through its slices to the labels over those edges.
"""

import pickle
import random
from dataclasses import replace

import pytest

from oddgraceful import (
    GraphTopology,
    MissingVertexLabelError,
    SearchStatus,
    build_union_graph,
    exhaustive_search,
    verify_odd_graceful,
)
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
    assert vars(topology) == {"m": 8, "n": 10**9}
    assert (topology.p, topology.q) == (8 + 10**9, 8 + 10**9 - 1)
    small = build_union_graph(8, 9)
    assert pickle.loads(pickle.dumps(small)) == small


@pytest.mark.parametrize("change", [{"m": 0}, {"n": 5}, {"names": tuple("abcdefg")}, {"edges": ()}, {}])
def test_replace_gives_a_topology_with_stored_tuples(change):
    union = build_union_graph(4, 3)
    changed = replace(union, **change)
    assert type(changed) is GraphTopology
    expected = {"names": union.names, "edges": union.edges, "m": 4, "n": 3, **change}
    assert vars(changed) == expected


def test_replace_checks_the_stored_tuples():
    with pytest.raises(ValueError, match="is not an index pair"):
        replace(build_union_graph(4, 3), names=())
