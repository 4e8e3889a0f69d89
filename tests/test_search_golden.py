"""Golden search outcomes: the exact status, statistics and certificate of
the search oracle, and the exact vertex order it assigns in.

The expected values are fixed records. Any change to the order in which
vertices are placed or labels are tried, to the node and attempt counts, or
to budget handling shows up here as a failure.
"""

import hashlib
import random

import pytest

from oddgraceful.graphs import build_free_graph, build_union_graph
from oddgraceful.graphspec import parse_graph_spec, topology_from_spec
from oddgraceful.search import SearchBudget, assignment_order, exhaustive_search
from test_search import SMALL_GRAPHS


def record(outcome):
    stats = outcome.stats
    return (outcome.status.value, stats.nodes_expanded, stats.assignments_tried, outcome.labeling)


# (graph, complement_symmetry) -> (status, nodes expanded, assignments tried, labeling)
SMALL = {
    ("C3", True): ("exhausted-none", 12, 75, None),
    ("C3", False): ("exhausted-none", 24, 150, None),
    ("C4", True): ("found", 7, 40, (0, 3, 2, 7)),
    ("C4", False): ("found", 7, 40, (0, 3, 2, 7)),
    ("C5", True): ("exhausted-none", 322, 3225, None),
    ("C5", False): ("exhausted-none", 644, 6450, None),
    ("P4", True): ("found", 9, 42, (0, 5, 2, 1)),
    ("P4", False): ("found", 9, 42, (0, 5, 2, 1)),
    ("P6", True): ("found", 80, 767, (0, 9, 2, 1, 6, 3)),
    ("P6", False): ("found", 80, 767, (0, 9, 2, 1, 6, 3)),
    ("star4", True): ("found", 5, 21, (0, 1, 3, 5, 7)),
    ("star4", False): ("found", 5, 21, (0, 1, 3, 5, 7)),
    ("triangle+pendant", True): ("exhausted-none", 20, 164, None),
    ("triangle+pendant", False): ("exhausted-none", 40, 328, None),
}

# the benchmark's search suite, each spec with complement_symmetry on and off
SUITE = {
    ("C7", True): ("exhausted-none", 9136, 127911, None),
    ("C7", False): ("exhausted-none", 18272, 255822, None),
    ("C9", True): ("exhausted-none", 361108, 6499953, None),
    ("C9", False): ("exhausted-none", 722216, 12999906, None),
    ("P10", True): ("found", 37350, 672201, (0, 17, 2, 1, 4, 9, 16, 3, 14, 5)),
    ("P10", False): ("found", 37350, 672201, (0, 17, 2, 1, 4, 9, 16, 3, 14, 5)),
    ("C4+P3", True): ("found", 151, 1766, (0, 3, 2, 11, 6, 1, 8)),
    ("C4+P3", False): ("found", 151, 1766, (0, 3, 2, 11, 6, 1, 8)),
    ("C6+P3", True): ("found", 38, 526, (0, 1, 4, 9, 2, 15, 3, 14, 5)),
    ("C6+P3", False): ("found", 38, 526, (0, 1, 4, 9, 2, 15, 3, 14, 5)),
    ("C8+P7", True): (
        "found", 38541, 1078923, (0, 1, 4, 9, 16, 25, 2, 27, 3, 18, 5, 26, 7, 24, 13),
    ),
    ("C8+P7", False): (
        "found", 38541, 1078923, (0, 1, 4, 9, 16, 25, 2, 27, 3, 18, 5, 26, 7, 24, 13),
    ),
    ("C4+P2", True): ("found", 45, 417, (0, 3, 2, 9, 1, 6)),
    ("C4+P2", False): ("found", 45, 417, (0, 3, 2, 9, 1, 6)),
    ("C6+P2", True): ("found", 17, 178, (0, 1, 4, 9, 2, 13, 3, 12)),
    ("C6+P2", False): ("found", 17, 178, (0, 1, 4, 9, 2, 13, 3, 12)),
    ("C8+P3", True): ("found", 194, 3757, (0, 1, 4, 11, 6, 15, 2, 19, 3, 18, 7)),
    ("C8+P3", False): ("found", 194, 3757, (0, 1, 4, 11, 6, 15, 2, 19, 3, 18, 7)),
    ("C8+P4", True): ("found", 1051, 22974, (0, 1, 4, 11, 6, 15, 2, 21, 3, 20, 5, 16)),
    ("C8+P4", False): ("found", 1051, 22974, (0, 1, 4, 11, 6, 15, 2, 21, 3, 20, 5, 16)),
    ("C8+P5", True): ("found", 6124, 146798, (0, 1, 4, 11, 6, 15, 2, 23, 3, 22, 5, 20, 9)),
    ("C8+P5", False): ("found", 6124, 146798, (0, 1, 4, 11, 6, 15, 2, 23, 3, 22, 5, 20, 9)),
    ("C10+P5", True): (
        "found", 27277, 763519, (0, 1, 4, 9, 16, 25, 6, 17, 2, 27, 5, 26, 3, 20, 7),
    ),
    ("C10+P5", False): (
        "found", 27277, 763519, (0, 1, 4, 9, 16, 25, 6, 17, 2, 27, 5, 26, 3, 20, 7),
    ),
    ("C12+P4", True): (
        "found", 45067, 1351748, (0, 1, 4, 9, 16, 3, 12, 23, 6, 27, 2, 29, 13, 28, 5, 24),
    ),
    ("C12+P4", False): (
        "found", 45067, 1351748, (0, 1, 4, 9, 16, 3, 12, 23, 6, 27, 2, 29, 13, 28, 5, 24),
    ),
    ("C4+C4", True): ("found", 1809, 28872, (0, 3, 2, 15, 1, 10, 5, 12)),
    ("C4+C4", False): ("found", 1809, 28872, (0, 3, 2, 15, 1, 10, 5, 12)),
}

# C9 under a node cap: the count stops one past the cap
C9_CAPPED = {
    10: ("budget-exhausted", 11, 129, None),
    1000: ("budget-exhausted", 1001, 17955, None),
    12345: ("budget-exhausted", 12346, 222166, None),
}

# sha256 over repr(assignment_order(t)) + "\n" for ORDER_TOPOLOGIES, in order
ORDER_DIGEST = "344e839069749025ad3ef71dd267e60e1e0f2e1e0e8d8a5ee851d72fd83ea3ba"


def random_free_graph(seed):
    # up to 30 vertices; about a third of these graphs have several components
    rng = random.Random(seed)
    size = rng.randint(2, 30)
    pairs = [tuple(rng.sample(range(1, size + 1), 2)) for _ in range(rng.randint(1, 2 * size))]
    return build_free_graph(pairs)


@pytest.mark.parametrize("name, symmetry", sorted(SMALL))
def test_small_graphs(name, symmetry):
    outcome = exhaustive_search(SMALL_GRAPHS[name], complement_symmetry=symmetry)
    assert record(outcome) == SMALL[name, symmetry]


@pytest.mark.parametrize("spec, symmetry", sorted(SUITE))
def test_search_suite(spec, symmetry):
    topology = topology_from_spec(parse_graph_spec(spec))
    outcome = exhaustive_search(topology, complement_symmetry=symmetry)
    assert record(outcome) == SUITE[spec, symmetry]


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
