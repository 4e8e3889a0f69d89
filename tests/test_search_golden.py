"""Golden search outcomes: the exact status, statistics and certificate of
the search oracle, and the exact vertex order of the reference search.

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
from reference_search import assignment_order
from test_search import SMALL_GRAPHS


def record(outcome):
    stats = outcome.stats
    return (outcome.status.value, stats.nodes_expanded, stats.assignments_tried, outcome.labeling)


# (graph, symmetry) -> (status, nodes expanded, assignments tried, labeling)
SMALL = {
    ("C3", True): ("exhausted-none", 1, 3, None),
    ("C3", False): ("exhausted-none", 6, 18, None),
    ("C4", True): ("found", 3, 4, (0, 7, 2, 3)),
    ("C4", False): ("found", 3, 4, (0, 7, 2, 3)),
    ("C5", True): ("exhausted-none", 9, 29, None),
    ("C5", False): ("exhausted-none", 90, 290, None),
    ("P4", True): ("found", 3, 3, (0, 5, 2, 1)),
    ("P4", False): ("found", 3, 3, (0, 5, 2, 1)),
    ("P6", True): ("found", 5, 5, (0, 9, 2, 7, 4, 3)),
    ("P6", False): ("found", 5, 5, (0, 9, 2, 7, 4, 3)),
    ("star4", True): ("found", 4, 4, (0, 7, 5, 3, 1)),
    ("star4", False): ("found", 4, 4, (0, 7, 5, 3, 1)),
    ("triangle+pendant", True): ("exhausted-none", 8, 26, None),
    ("triangle+pendant", False): ("exhausted-none", 16, 52, None),
}

# the benchmark's search suite, each spec with symmetry on and off
SUITE = {
    ("C7", True): ("exhausted-none", 147, 499, None),
    ("C7", False): ("exhausted-none", 2058, 6986, None),
    ("C9", True): ("exhausted-none", 3233, 14129, None),
    ("C9", False): ("exhausted-none", 58194, 254322, None),
    ("P10", True): ("found", 10, 20, (0, 17, 2, 15, 4, 13, 6, 11, 8, 7)),
    ("P10", False): ("found", 10, 20, (0, 17, 2, 15, 4, 13, 6, 11, 8, 7)),
    ("C4+P3", True): ("found", 5, 6, (0, 11, 2, 7, 1, 4, 3)),
    ("C4+P3", False): ("found", 5, 6, (0, 11, 2, 7, 1, 4, 3)),
    ("C6+P3", True): ("found", 7, 8, (0, 15, 2, 13, 4, 7, 1, 6, 5)),
    ("C6+P3", False): ("found", 7, 8, (0, 15, 2, 13, 4, 7, 1, 6, 5)),
    ("C8+P7", True): ("found", 13, 14, (0, 27, 2, 25, 4, 23, 6, 15, 1, 14, 3, 10, 5, 8, 7)),
    ("C8+P7", False): ("found", 13, 14, (0, 27, 2, 25, 4, 23, 6, 15, 1, 14, 3, 10, 5, 8, 7)),
    ("C4+P2", True): ("found", 4, 5, (0, 9, 2, 5, 3, 4)),
    ("C4+P2", False): ("found", 4, 5, (0, 9, 2, 5, 3, 4)),
    ("C6+P2", True): ("found", 6, 7, (0, 13, 2, 11, 4, 5, 3, 6)),
    ("C6+P2", False): ("found", 6, 7, (0, 13, 2, 11, 4, 5, 3, 6)),
    ("C8+P3", True): ("found", 9, 10, (0, 19, 2, 17, 4, 15, 6, 7, 3, 8, 5)),
    ("C8+P3", False): ("found", 9, 10, (0, 19, 2, 17, 4, 15, 6, 7, 3, 8, 5)),
    ("C8+P4", True): ("found", 11, 12, (0, 21, 2, 19, 4, 17, 6, 9, 1, 8, 13, 12)),
    ("C8+P4", False): ("found", 11, 12, (0, 21, 2, 19, 4, 17, 6, 9, 1, 8, 13, 12)),
    ("C8+P5", True): ("found", 12, 27, (0, 23, 2, 21, 4, 19, 6, 11, 1, 10, 17, 14, 13)),
    ("C8+P5", False): ("found", 12, 27, (0, 23, 2, 21, 4, 19, 6, 11, 1, 10, 17, 14, 13)),
    ("C10+P5", True): (
        "found", 14, 31, (0, 27, 2, 25, 4, 23, 6, 21, 8, 11, 1, 10, 17, 12, 13),
    ),
    ("C10+P5", False): (
        "found", 14, 31, (0, 27, 2, 25, 4, 23, 6, 21, 8, 11, 1, 10, 17, 12, 13),
    ),
    ("C12+P4", True): (
        "found", 15, 15, (0, 29, 2, 27, 4, 25, 6, 23, 8, 21, 10, 1, 5, 12, 17, 14),
    ),
    ("C12+P4", False): (
        "found", 15, 15, (0, 29, 2, 27, 4, 25, 6, 23, 8, 21, 10, 1, 5, 12, 17, 14),
    ),
    ("C4+C4", True): ("found", 6, 8, (0, 15, 2, 11, 1, 8, 3, 4)),
    ("C4+C4", False): ("found", 6, 8, (0, 15, 2, 11, 1, 8, 3, 4)),
}

# C9 under a node cap below its 3,233 nodes: the count stops one past the cap
C9_CAPPED = {
    10: ("budget-exhausted", 11, 34, None),
    1000: ("budget-exhausted", 1001, 4355, None),
    3000: ("budget-exhausted", 3001, 13103, None),
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


@pytest.mark.parametrize("name, symmetry", sorted(SMALL))
def test_small_graphs(name, symmetry):
    topology = SMALL_GRAPHS[name]
    outcome = exhaustive_search(topology, symmetry=symmetry)
    assert record(outcome) == SMALL[name, symmetry]
    assert_certified(topology, SMALL[name, symmetry])


@pytest.mark.parametrize("spec, symmetry", sorted(SUITE))
def test_search_suite(spec, symmetry):
    topology = topology_from_spec(parse_graph_spec(spec))
    outcome = exhaustive_search(topology, symmetry=symmetry)
    assert record(outcome) == SUITE[spec, symmetry]
    assert_certified(topology, SUITE[spec, symmetry])


@pytest.mark.parametrize("cap", sorted(C9_CAPPED))
def test_c9_under_node_cap(cap):
    topology = topology_from_spec(parse_graph_spec("C9"))
    outcome = exhaustive_search(topology, SearchBudget(max_nodes=cap))
    assert record(outcome) == C9_CAPPED[cap]


def test_assignment_order_digest():
    topologies = [random_free_graph(seed) for seed in range(500)]
    # v1 of C_m + P_1 is an isolated vertex
    topologies += [build_union_graph(m, 1) for m in range(4, 21, 2)]
    digest = hashlib.sha256()
    for topology in topologies:
        digest.update(repr(assignment_order(topology)).encode() + b"\n")
    assert digest.hexdigest() == ORDER_DIGEST
