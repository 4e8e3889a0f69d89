"""Differential tests: the search oracle's verdicts against two references.

The oracle cuts by label parity: an odd cycle ends it before the first node,
and in a component that already has a label each pair edge keeps one
orientation. Neither reference shares code with it or makes either cut.

The vertex-order reference (``tests/reference_search.py``) runs on the same
seeded random graphs of at most 8 vertices. Uncapped, both must reach the
same verdict on every graph; under a node cap, their verdicts must agree
whenever both reach one. The two searches explore the space in different
orders, so their node and attempt counts and their certificates differ, and
only verdicts are compared. Half of the graphs are dense bipartite graphs,
which survive the parity pruning and reach deep levels; the other half are
dense graphs of any kind. Some vertices are left isolated.

Plain enumeration (``tests/bruteforce.py``) is the second reference, on
seeded graphs of at most 6 vertices, some with more vertices than labels.

Disjoint unions of cycles and paths have their own draw: seeded unions with
their vertices renumbered and their edges shuffled, some with a chord or a
pendant, so that many components open below the first level. Their verdicts
are checked against both references. Every certificate must pass the
verifier.
"""

import random
from itertools import permutations

import pytest

from bruteforce import brute_force_has_labeling
from oddgraceful.graphs import GraphTopology
from oddgraceful.search import SearchBudget, SearchStatus, exhaustive_search
from oddgraceful.verification import verify_odd_graceful
from reference_search import assignment_order, reference_search

SEEDS = range(200)
CAPS = (1, 10, 100, 5_000)
# edges per graph in the plain-enumeration test, by vertex count: plain
# enumeration of a graph with no labeling tries all (2q)!/(2q - V)! labelings
MAX_EDGES = {2: 1, 3: 3, 4: 6, 5: 5, 6: 4}
SMALL_SEEDS = range(300)
UNION_SEEDS = range(200)
UNION_VERTICES = 8  # at most, before a pendant


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
    return GraphTopology(tuple(f"w{v + 1}" for v in range(size)), tuple(edges))


def small_graph(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 6)
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    rng.shuffle(pairs)
    edges = sorted(pairs[: rng.randint(1, MAX_EDGES[size])])
    return GraphTopology(tuple(f"w{v + 1}" for v in range(size)), tuple(edges))


def random_union(seed):
    """1-4 cycle and path terms; a fifth of them get a pendant, a fifth a chord."""
    rng = random.Random(seed)
    pairs, size = [], 0
    for _ in range(rng.randint(1, 4)):
        cycle = rng.random() < 0.5
        length = rng.randint(3, 6) if cycle else rng.randint(2, 5)
        if size + length > UNION_VERTICES:
            break
        pairs += [(size + i, size + i + 1) for i in range(length - 1)]
        if cycle:
            pairs.append((size, size + length - 1))
        size += length
    extra = rng.random()
    if extra < 0.2:
        pairs.append((rng.randrange(size), size))
        size += 1
    elif extra < 0.4:
        missing = [(a, b) for a in range(size) for b in range(a + 1, size) if (a, b) not in pairs]
        if missing:
            pairs.append(rng.choice(missing))
    number = list(range(size))
    rng.shuffle(number)
    rng.shuffle(pairs)
    edges = tuple(tuple(sorted((number[a], number[b]))) for a, b in pairs)
    return GraphTopology(tuple(f"w{v + 1}" for v in range(size)), edges)


def isomorphism_class(topology):
    # the least sorted edge list over every renumbering of the vertices
    size = len(topology.names)
    return size, min(
        tuple(sorted(tuple(sorted((order[a], order[b]))) for a, b in topology.edges))
        for order in permutations(range(size))
    )


def most_labelled_neighbours(topology):
    # the most neighbours any vertex has already labelled when its turn comes
    position = {v: depth for depth, v in enumerate(assignment_order(topology))}
    earlier = [0] * len(position)
    for a, b in topology.edges:
        earlier[max(position[a], position[b])] += 1
    return max(earlier)


def has_isolated_vertex(topology):
    return len(topology.names) > len({v for edge in topology.edges for v in edge})


def certified(topology, outcome):
    """The outcome's status; a certificate, if any, must pass the verifier."""
    assert (outcome.labeling is not None) == (outcome.status is SearchStatus.FOUND)
    if outcome.labeling is not None:
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful
    return outcome.status.value


GRAPHS = [random_graph(seed) for seed in SEEDS]
SMALL_GRAPHS = [small_graph(seed) for seed in SMALL_SEEDS]
UNIONS = [random_union(seed) for seed in UNION_SEEDS]


def test_draws_cover_the_pruning_cases():
    # three labelled neighbours give three pairs that may share a midpoint
    assert max(most_labelled_neighbours(t) for t in GRAPHS) >= 3
    assert any(has_isolated_vertex(t) for t in GRAPHS)
    assert max(len(t.names) for t in GRAPHS) == 8


def test_same_verdicts_uncapped():
    statuses = set()
    for seed, topology in zip(SEEDS, GRAPHS):
        expected = certified(topology, reference_search(topology))
        actual = certified(topology, exhaustive_search(topology))
        assert actual == expected, seed
        statuses.add(expected)
    assert statuses == {"found", "exhausted-none"}


@pytest.mark.parametrize("cap", CAPS)
def test_matches_reference(cap):
    budget = SearchBudget(max_nodes=cap)
    statuses = set()
    for seed, topology in zip(SEEDS, GRAPHS):
        reference = reference_search(topology, budget)
        outcome = exhaustive_search(topology, budget)
        expected, actual = certified(topology, reference), certified(topology, outcome)
        if "budget-exhausted" not in (expected, actual):
            assert actual == expected, seed
        statuses.update((expected, actual))
    assert "budget-exhausted" in statuses
    if cap >= 100:
        assert statuses == {"found", "exhausted-none", "budget-exhausted"}


def test_matches_plain_enumeration():
    assert any(has_isolated_vertex(t) for t in SMALL_GRAPHS)
    assert any(len(t.names) > 2 * t.q for t in SMALL_GRAPHS)
    for seed, topology in zip(SMALL_SEEDS, SMALL_GRAPHS):
        expected = "found" if brute_force_has_labeling(topology) else "exhausted-none"
        outcome = exhaustive_search(topology)
        assert certified(topology, outcome) == expected, seed
        if len(topology.names) > 2 * topology.q:  # more vertices than labels
            assert outcome.stats.nodes_expanded == 0, seed


def test_unions_agree_with_unpruned_references():
    assert any(len(t.names) <= 6 for t in UNIONS)
    statuses, plain = set(), {}  # plain: enumeration's verdict per isomorphism class
    for seed, topology in zip(UNION_SEEDS, UNIONS):
        expected = certified(topology, reference_search(topology))
        assert certified(topology, exhaustive_search(topology)) == expected, seed
        if len(topology.names) <= 6:
            key = isomorphism_class(topology)
            if key not in plain:
                plain[key] = "found" if brute_force_has_labeling(topology) else "exhausted-none"
            assert plain[key] == expected, seed
        statuses.add(expected)
    assert statuses == {"found", "exhausted-none"}
