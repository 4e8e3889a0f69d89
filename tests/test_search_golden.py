"""Golden search outcomes: the exact status, statistics and certificate of
the search oracle, and the exact vertex order of the reference search.
The unpruned reference search must reach each pinned status as well,
except in ``DEEP``, which it cannot reach in a test's time.

The expected values are fixed records. Any change to the order in which
differences, edges or labels are tried, to the node and attempt counts, or
to budget handling shows up here as a failure. Every pinned certificate
must also pass the verifier.
"""

import hashlib
import random

import pytest

from oddgraceful.graphs import build_free_graph, build_union_graph
from oddgraceful.graphspec import parse_graph_spec, topology_from_spec
from oddgraceful.search import SearchBudget, exhaustive_search
from oddgraceful.verification import verify_odd_graceful
from reference_search import assignment_order, reference_search
from test_search import SMALL_GRAPHS


def record(outcome):
    stats = outcome.stats
    return (outcome.status.value, stats.nodes_expanded, stats.assignments_tried, outcome.labeling)


# graph -> (status, nodes expanded, assignments tried, labeling)
SMALL = {
    "C3": ("exhausted-none", 0, 0, None),
    "C4": ("found", 3, 4, (0, 7, 2, 3)),
    "C5": ("exhausted-none", 0, 0, None),
    "P4": ("found", 3, 3, (0, 5, 2, 1)),
    "P6": ("found", 5, 5, (0, 9, 2, 7, 4, 3)),
    "star4": ("found", 4, 4, (0, 7, 5, 3, 1)),
    "triangle+pendant": ("exhausted-none", 0, 0, None),
}

# the benchmark's search suite
SUITE = {
    "C7": ("exhausted-none", 0, 0, None),
    "C9": ("exhausted-none", 0, 0, None),
    "P10": ("found", 10, 15, (0, 17, 2, 15, 4, 13, 6, 11, 8, 7)),
    "C4+P3": ("found", 5, 6, (0, 11, 2, 7, 1, 4, 3)),
    "C6+P3": ("found", 7, 8, (0, 15, 2, 13, 4, 7, 1, 6, 5)),
    "C8+P7": ("found", 13, 14, (0, 27, 2, 25, 4, 23, 6, 15, 1, 14, 3, 10, 5, 8, 7)),
    "C4+P2": ("found", 4, 5, (0, 9, 2, 5, 3, 4)),
    "C6+P2": ("found", 6, 7, (0, 13, 2, 11, 4, 5, 3, 6)),
    "C8+P3": ("found", 9, 10, (0, 19, 2, 17, 4, 15, 6, 7, 3, 8, 5)),
    "C8+P4": ("found", 11, 12, (0, 21, 2, 19, 4, 17, 6, 9, 1, 8, 13, 12)),
    "C8+P5": ("found", 12, 20, (0, 23, 2, 21, 4, 19, 6, 11, 1, 10, 17, 14, 13)),
    "C10+P5": (
        "found", 14, 23, (0, 27, 2, 25, 4, 23, 6, 21, 8, 11, 1, 10, 17, 12, 13),
    ),
    "C12+P4": (
        "found", 15, 15, (0, 29, 2, 27, 4, 25, 6, 23, 8, 21, 10, 1, 5, 12, 17, 14),
    ),
    "C4+C4": ("found", 6, 8, (0, 15, 2, 11, 1, 8, 3, 4)),
}

# a search too deep for the unpruned reference: the parity cut fixes the
# orientation of each pair edge in a component that already has a label
DEEP = {
    "C24+P5": (
        "found", 99387, 352066,
        (0, 55, 2, 53, 4, 51, 6, 49, 8, 47, 10, 45, 12, 43, 14, 41, 16, 39, 18, 37, 20, 33,
         22, 7, 15, 24, 29, 26, 25),
    ),
}

# C24+P5 under a node cap below its 99,387 nodes: the count stops one past the cap
CAPPED = {
    10: ("budget-exhausted", 11, 11, None),
    1000: ("budget-exhausted", 1001, 1572, None),
    3000: ("budget-exhausted", 3001, 4368, None),
}

# sha256 over repr(assignment_order(t)) + "\n" for ORDER_TOPOLOGIES, in order
ORDER_DIGEST = "344e839069749025ad3ef71dd267e60e1e0f2e1e0e8d8a5ee851d72fd83ea3ba"


def random_free_graph(seed):
    # up to 30 vertices; about a third of these graphs have several components
    rng = random.Random(seed)
    size = rng.randint(2, 30)
    pairs = [tuple(rng.sample(range(1, size + 1), 2)) for _ in range(rng.randint(1, 2 * size))]
    return build_free_graph(pairs)


def assert_certified(topology, expected):
    certificate = expected[3]
    assert (certificate is not None) == (expected[0] == "found")
    if certificate is not None:
        assert verify_odd_graceful(topology, certificate).is_odd_graceful


def assert_pinned(topology, expected, pruned):
    """pruned: the oracle gives the pinned record; otherwise the unpruned
    reference search reaches the pinned status with a verified certificate."""
    assert_certified(topology, expected)
    if pruned:
        assert record(exhaustive_search(topology)) == expected
        return
    outcome = reference_search(topology)
    assert outcome.status.value == expected[0]
    if outcome.labeling is not None:
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


@pytest.mark.parametrize("pruned", (False, True))
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_graphs(name, pruned):
    assert_pinned(SMALL_GRAPHS[name], SMALL[name], pruned)


@pytest.mark.parametrize("pruned", (False, True))
@pytest.mark.parametrize("spec", sorted(SUITE))
def test_search_suite(spec, pruned):
    assert_pinned(topology_from_spec(parse_graph_spec(spec)), SUITE[spec], pruned)


@pytest.mark.parametrize("spec", sorted(DEEP))
def test_deep_search(spec):
    assert_pinned(topology_from_spec(parse_graph_spec(spec)), DEEP[spec], pruned=True)


@pytest.mark.parametrize("cap", sorted(CAPPED))
def test_c24_p5_under_node_cap(cap):
    topology = topology_from_spec(parse_graph_spec("C24+P5"))
    outcome = exhaustive_search(topology, SearchBudget(max_nodes=cap))
    assert record(outcome) == CAPPED[cap]


def test_assignment_order_digest():
    topologies = [random_free_graph(seed) for seed in range(500)]
    # v1 of C_m + P_1 is an isolated vertex
    topologies += [build_union_graph(m, 1) for m in range(4, 21, 2)]
    digest = hashlib.sha256()
    for topology in topologies:
        digest.update(repr(assignment_order(topology)).encode() + b"\n")
    assert digest.hexdigest() == ORDER_DIGEST
