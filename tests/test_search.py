import itertools

import pytest

from bruteforce import brute_force_has_labeling
from oddgraceful import (
    SearchBudget,
    SearchStatus,
    build_union_graph,
    exhaustive_search,
    verify_odd_graceful,
)
from oddgraceful.graphs import GraphTopology, build_free_graph
from oddgraceful.graphspec import parse_graph_spec, topology_from_spec
from reference_search import assignment_order, reference_search


def cycle_edges(length):
    return [(i, i + 1) for i in range(1, length)] + [(length, 1)]


def path_edges(length):
    return [(i, i + 1) for i in range(1, length)]


SMALL_GRAPHS = {
    "C3": build_free_graph(cycle_edges(3)),
    "C4": build_free_graph(cycle_edges(4)),
    "C5": build_free_graph(cycle_edges(5)),
    "P4": build_free_graph(path_edges(4)),
    "P6": build_free_graph(path_edges(6)),
    "star4": build_free_graph([(1, 2), (1, 3), (1, 4), (1, 5)]),
    "triangle+pendant": build_free_graph(cycle_edges(3) + [(3, 4)]),
}


class TestOutcomes:
    def test_c4_found(self):
        outcome = exhaustive_search(SMALL_GRAPHS["C4"])
        assert outcome.status is SearchStatus.FOUND
        assert outcome.labeling is not None

    def test_c3_exhausted(self):
        outcome = exhaustive_search(SMALL_GRAPHS["C3"])
        assert outcome.status is SearchStatus.EXHAUSTED_NONE
        assert outcome.labeling is None

    def test_c5_exhausted(self):
        outcome = exhaustive_search(SMALL_GRAPHS["C5"])
        assert outcome.status is SearchStatus.EXHAUSTED_NONE

    def test_topology_without_edges_is_rejected(self):
        topology = GraphTopology(names=("u1",), edges=())
        with pytest.raises(ValueError, match="search needs a topology with at least one edge"):
            exhaustive_search(topology)

    def test_union_c4_p3_found(self):
        topology = build_union_graph(4, 3)
        outcome = exhaustive_search(topology)
        assert outcome.status is SearchStatus.FOUND
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful

    def test_found_certificates_pass_verifier(self):
        for name in ("C4", "P4", "P6", "star4"):
            topology = SMALL_GRAPHS[name]
            outcome = exhaustive_search(topology)
            assert outcome.status is SearchStatus.FOUND, name
            assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


class TestProof:
    def test_odd_cycle_proof_exactly_when_not_bipartite(self):
        # every graph on 2..5 vertices, isolated vertices included
        for size in range(2, 6):
            pairs = list(itertools.combinations(range(size), 2))
            for chosen in range(1, 1 << len(pairs)):
                edges = tuple(pair for i, pair in enumerate(pairs) if chosen >> i & 1)
                names = tuple(f"w{v}" for v in range(size))
                topology = GraphTopology(names=names, edges=edges)
                bipartite = any(
                    all((sides >> a ^ sides >> b) & 1 for a, b in edges)
                    for sides in range(1 << size)
                )
                if not bipartite:
                    expected = "odd cycle"
                elif size > 2 * len(edges):
                    expected = "more vertices than labels"
                else:
                    expected = None
                outcome = exhaustive_search(topology)
                assert outcome.stats.proof == expected, edges
                if expected is not None:
                    assert outcome.status is SearchStatus.EXHAUSTED_NONE
                    assert outcome.stats.nodes_expanded == outcome.stats.assignments_tried == 0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_status_matches_plain_enumeration(self, name):
        topology = SMALL_GRAPHS[name]
        expected = brute_force_has_labeling(topology)
        outcome = exhaustive_search(topology)
        assert (outcome.status is SearchStatus.FOUND) == expected


class TestSymmetryBreaking:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_same_status_with_and_without(self, name):
        # the oracle with its parity cut, the reference without any
        topology = SMALL_GRAPHS[name]
        reduced = exhaustive_search(topology)
        full = reference_search(topology)
        assert reduced.status is full.status

    def test_second_orientation_below_the_root(self):
        # C10+P3+P5, renumbered and its edges shuffled, so that components
        # open below the first level, where a pair edge tries both
        # orientations: found in 39 nodes
        topology = build_free_graph([
            (9, 5), (6, 2), (2, 15), (7, 10), (3, 16), (16, 7), (11, 18), (10, 13),
            (4, 1), (4, 8), (5, 6), (14, 11), (15, 17), (8, 12), (12, 9), (17, 1),
        ])
        outcome = exhaustive_search(topology, SearchBudget(max_nodes=10_000))
        assert outcome.status is SearchStatus.FOUND
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


class TestBudget:
    def test_node_cap_reports_budget_exhausted(self):
        topology = build_union_graph(24, 5)  # found in 99,387 nodes
        outcome = exhaustive_search(topology, SearchBudget(max_nodes=10))
        assert outcome.status is SearchStatus.BUDGET_EXHAUSTED
        assert outcome.labeling is None
        assert outcome.stats.nodes_expanded == 11  # the node that crossed the cap

    def test_generous_cap_still_exhausts(self):
        outcome = exhaustive_search(SMALL_GRAPHS["C5"], SearchBudget(max_nodes=10**6))
        assert outcome.status is SearchStatus.EXHAUSTED_NONE

    def test_time_limit(self):
        topology = build_union_graph(24, 5)  # found in about 0.5 s
        outcome = exhaustive_search(topology, SearchBudget(time_limit_ms=1))
        assert outcome.status is SearchStatus.BUDGET_EXHAUSTED

    def test_time_limit_beyond_a_float_is_no_limit(self):
        limited = exhaustive_search(SMALL_GRAPHS["C5"], SearchBudget(time_limit_ms=10**400))
        assert limited == exhaustive_search(SMALL_GRAPHS["C5"])

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(time_limit_ms=0)


class TestDeepSearch:
    def test_star_deeper_than_the_recursion_limit(self):
        star = build_free_graph([(1, leaf) for leaf in range(2, 1502)])  # K1,1500
        outcome = exhaustive_search(star)
        assert outcome.status is SearchStatus.FOUND
        assert verify_odd_graceful(star, outcome.labeling).is_odd_graceful
        assert outcome.stats.nodes_expanded == 1500  # one level per edge


# odd graceful C_m + P_n cells below the construction's bound; the last
# three number the path's vertices before the cycle's
KNOWN_YES = (
    [f"C12+P{n}" for n in range(5, 11)]
    + [f"C14+P{n}" for n in range(4, 11)]
    + ["P5+C12", "P6+C12", "P4+C14"]
)


class TestKnownYesCells:
    @pytest.mark.parametrize("spec", KNOWN_YES)
    def test_found_within_the_default_budget(self, spec):
        topology = topology_from_spec(parse_graph_spec(spec))
        outcome = exhaustive_search(topology)
        assert outcome.status is SearchStatus.FOUND
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self):
        for name in ("C3", "C4", "C5", "star4"):
            first = exhaustive_search(SMALL_GRAPHS[name])
            second = exhaustive_search(SMALL_GRAPHS[name])
            assert first == second


class TestAssignmentOrder:
    def test_connected_frontier(self):
        topology = build_union_graph(4, 3)
        order = assignment_order(topology)
        seen = {order[0]}
        neighbors = {v: [] for v in range(len(topology.names))}
        for a, b in topology.edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        for vertex in order[1:]:
            # every later vertex touches the placed set unless it starts a
            # fresh component (or is isolated)
            if any(u in seen for u in neighbors[vertex]):
                seen.add(vertex)
                continue
            assert all(u not in seen for u in neighbors[vertex])
            seen.add(vertex)

    def test_isolated_vertices_last(self):
        topology = build_union_graph(4, 1)  # v1 has no edges
        order = assignment_order(topology)
        assert topology.names[order[-1]] == "v1"

    def test_search_handles_isolated_vertices(self):
        topology = build_union_graph(4, 1)
        outcome = exhaustive_search(topology)
        assert outcome.status is SearchStatus.FOUND
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful
