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
from oddgraceful.search import root_edges
from reference_search import assignment_order, reference_search
from test_search_differential import UNIONS


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
                topology = GraphTopology(names=names, edges=edges, m=0, n=0)
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
        # the oracle with its symmetry cuts, the reference without any
        topology = SMALL_GRAPHS[name]
        reduced = exhaustive_search(topology)
        full = reference_search(topology)
        assert reduced.status is full.status

    def test_second_orientation_below_the_root(self):
        # C10+P3+P5, renumbered: the first labeling the oracle reaches puts x
        # on the second end of a pair edge below the root, in 45 nodes. An
        # oracle without that orientation takes 21,677,634 nodes to a labeling.
        topology = build_free_graph([
            (9, 5), (6, 2), (2, 15), (7, 10), (3, 16), (16, 7), (11, 18), (10, 13),
            (4, 1), (4, 8), (5, 6), (14, 11), (15, 17), (8, 12), (12, 9), (17, 1),
        ])
        outcome = exhaustive_search(topology, SearchBudget(max_nodes=10_000))
        assert outcome.status is SearchStatus.FOUND
        assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


def components(topology):
    """Each component's kind, C (cycle), P (path) or G (any other), and its
    vertices: in walk order for a cycle or a path, from one end of a path."""
    adjacent = [set() for _ in topology.names]
    for a, b in topology.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen, found = set(), []
    for start in sorted(range(len(adjacent)), key=lambda v: len(adjacent[v]) != 1):
        if start in seen or not adjacent[start]:
            continue
        members, frontier = {start}, [start]
        while frontier:
            for w in adjacent[frontier.pop()] - members:
                members.add(w)
                frontier.append(w)
        seen |= members
        if any(len(adjacent[v]) > 2 for v in members):
            found.append(("G", sorted(members)))
            continue
        walk = [start]
        while len(walk) < len(members):
            walk.append(min(adjacent[walk[-1]] - set(walk[-2:])))
        found.append(("C" if len(adjacent[start]) == 2 else "P", walk))
    return found


def explicit_automorphisms(topology):
    """Every vertex permutation that maps one cycle (path) component onto an
    equal one by a rotation or reflection (identity or reversal), swaps the
    two, and fixes every other vertex."""
    parts = [part for part in components(topology) if part[0] != "G"]
    for kind, source in parts:
        k = len(source)
        if kind == "C":
            images = [[(s + r * t) % k for t in range(k)] for s in range(k) for r in (1, -1)]
        else:
            images = [list(range(k)), list(range(k - 1, -1, -1))]
        for other, target in parts:
            if other != kind or len(target) != k:
                continue
            for image in images:
                perm = list(range(len(topology.names)))
                for t, u in enumerate(image):
                    perm[source[t]] = target[u]
                    if target is not source:
                        perm[target[u]] = source[t]
                yield perm


class TestRootOrbits:
    SPECS = ["C3", "C9", "P2", "P10", "C4+P3", "C4+C4", "P3+P3+P3", "C5+P4+C5+P4", "P5+C12"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_specs(self, spec):
        self.assert_sound(topology_from_spec(parse_graph_spec(spec)))

    def test_unions(self):
        kinds = set()
        for topology in UNIONS:
            self.assert_sound(topology)
            kinds.update(kind for kind, _ in components(topology))
        assert kinds == {"C", "P", "G"}

    def test_counts(self):
        c9 = topology_from_spec(parse_graph_spec("C9"))
        assert root_edges(c9) == 1  # one rotation class, edge 0
        p10 = topology_from_spec(parse_graph_spec("P10"))
        assert root_edges(p10) == 0b11111  # edges j and 8 - j are one class
        star = build_free_graph([(1, 2), (1, 3), (1, 4), (1, 5)])
        assert root_edges(star) == 0b1111  # not a cycle or path: every edge kept

    @staticmethod
    def assert_sound(topology):
        # every skipped edge is mapped onto a kept edge by an automorphism,
        # written out as a permutation that maps the edge set onto itself
        roots = root_edges(topology)
        edge_set = {frozenset(edge) for edge in topology.edges}
        index = {frozenset(edge): i for i, edge in enumerate(topology.edges)}
        automorphisms = list(explicit_automorphisms(topology))
        for perm in automorphisms:
            assert sorted(perm) == list(range(len(perm)))
            assert {frozenset((perm[a], perm[b])) for a, b in topology.edges} == edge_set
        assert roots & 1  # edge 0 always stays
        for i, (a, b) in enumerate(topology.edges):
            if not roots >> i & 1:
                assert any(
                    roots >> index[frozenset((perm[a], perm[b]))] & 1 for perm in automorphisms
                ), (topology.edges, i)


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
