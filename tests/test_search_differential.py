"""Differential test: the search oracle against the label-by-label reference.

Both searches run on the same seeded random graphs of at most 8 vertices,
with complement symmetry on and off and under several node caps, and must
agree on status, nodes expanded, assignments tried and certificate. Half of
the graphs are dense bipartite graphs, which survive the parity pruning and
reach deep levels; the other half are dense graphs of any kind. Some
vertices are left isolated, so they are placed last.
"""

import random

import pytest

from oddgraceful.graphs import GraphTopology
from oddgraceful.search import SearchBudget, assignment_order, exhaustive_search
from reference_search import reference_search
from test_search_golden import record

SEEDS = range(200)
CAPS = (1, 10, 100, 5_000)


def random_graph(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 8)
    side = [rng.randrange(2) for _ in range(size)]
    bipartite = seed % 2 == 0
    density = rng.choice((0.5, 0.7, 0.9))
    isolated = set(rng.sample(range(size), rng.randint(0, (size - 2) // 2)))
    edges = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if a not in isolated and b not in isolated
        and (side[a] != side[b] or not bipartite)
        and rng.random() < density
    ]
    if not edges:
        a, b = sorted(set(range(size)) - isolated)[:2]
        edges = [(a, b)]
    return GraphTopology(tuple(f"w{v + 1}" for v in range(size)), tuple(edges), 0, 0)


def most_labelled_neighbours(topology):
    # the most neighbours any vertex has already labelled when its turn comes
    position = {v: depth for depth, v in enumerate(assignment_order(topology))}
    earlier = [0] * len(position)
    for a, b in topology.edges:
        earlier[max(position[a], position[b])] += 1
    return max(earlier)


GRAPHS = [random_graph(seed) for seed in SEEDS]


def test_draws_cover_the_pruning_cases():
    # three labelled neighbours give three pairs that may share a midpoint
    assert max(most_labelled_neighbours(t) for t in GRAPHS) >= 3
    assert any(len(t.names) > len({v for e in t.edges for v in e}) for t in GRAPHS)
    assert max(len(t.names) for t in GRAPHS) == 8


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("cap", CAPS)
def test_matches_reference(cap, symmetry):
    budget = SearchBudget(max_nodes=cap)
    statuses = set()
    for seed, topology in zip(SEEDS, GRAPHS):
        expected = record(reference_search(topology, budget, complement_symmetry=symmetry))
        actual = record(exhaustive_search(topology, budget, complement_symmetry=symmetry))
        assert actual == expected, seed
        statuses.add(expected[0])
    assert "budget-exhausted" in statuses
    if cap >= 100:
        assert statuses == {"found", "exhausted-none", "budget-exhausted"}
