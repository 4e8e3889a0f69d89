"""Exhaustive backtracking search for odd graceful labelings of small graphs.

The search is difference-first, after Aldred & McKay (Bull. ICA 23, 1998)
and Horton, *Graceful Trees: Statistics and Algorithms* (2003). Each level
places D, the largest odd difference not yet induced: in any labeling some
undone edge carries D, so the level tries each undone edge in edge order.
An edge with both ends unlabelled takes a pair of free labels (x, x + D):
first each pair with x on its first end, lowest x first, then each with x on
its second end. An edge with one end labelled c gives its other end c - D or
c + D, lower first. A placement stands only if every edge it completes has
an odd difference not yet induced, which is checked on the ``free`` (unused
labels) and ``used`` (induced differences) bitsets. The first level places
2q-1, so it puts 0 and 2q-1 on one edge.

Each level of the explicit stack holds a few ints: D, the edge, the mask of
untried placements and the entry bitsets. Its depth is at most q, whatever
the recursion limit. Once every difference is induced, every edge is done,
and isolated vertices take the lowest free labels. A graph with more
vertices than 2q labels has no labeling and ends at once.

Two symmetries cut the first level. Solutions come in complement pairs (f
and 2q-1-f), which swap the orientation of the edge carrying 2q-1, so only
one orientation of that edge is tried. Below the root no symmetry is left to
pair the two orientations of an edge, so both are tried: a renumbered
C10+P3+P5 is found in 45 nodes with them and in 21,677,634 without. And 2q-1
goes only on ``root_edges``: the lowest-numbered edge of each orbit under
the automorphisms known from the topology alone, the rotations and
reflections of a cycle component, the reversal of a path component and the
swaps of equal cycle or path components. If an automorphism s maps edge e to
r and f is odd graceful with 2q-1 on e, then f composed with s^-1 is odd
graceful with 2q-1 on r, so no verdict is lost; its complement keeps 2q-1 on
r, so the two cuts hold together. A cycle's edges are one orbit, so C_m
searches one edge in m.

Exhaustion cost still grows exponentially with q: C9 takes 3,233 nodes,
C11 109,447 (about 1 s) and C13 5,346,249 (about 40 s). A larger graph runs
until a labeling is found or the budget runs out.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from .graphs import GraphTopology, Labeling
from .verification import verify_odd_graceful


class SearchStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted-none"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchBudget:
    """Node cap (and optional wall-clock cap) for one search."""

    max_nodes: int = 100_000_000
    time_limit_ms: int | None = None

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.time_limit_ms is not None and self.time_limit_ms < 1:
            raise ValueError(f"time_limit_ms must be positive, got {self.time_limit_ms}")


@dataclass(frozen=True)
class SearchStats:
    """Work done by one search.

    nodes_expanded: placements that passed their check, one per partial labeling reached.
    assignments_tried: placements attempted, failed ones included.
    """

    nodes_expanded: int
    assignments_tried: int


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    labeling: Labeling | None
    stats: SearchStats


def root_edges(topology: GraphTopology) -> int:
    """Bit i for each edge on which the first level may place 2q-1: the
    lowest-numbered edge of each orbit under the rotations and reflections
    of every cycle component, the reversal of every path component and the
    swaps of equal cycle or path components. Every edge of any other
    component is its own orbit. Found in O(V + E) from the topology alone.
    """
    edges = topology.edges
    incident: list[list[int]] = [[] for _ in topology.names]
    for i, (a, b) in enumerate(edges):
        incident[a].append(i)
        incident[b].append(i)
    orbit: list[tuple[int, ...]] = [(2, i) for i in range(len(edges))]
    seen = [False] * len(incident)
    # path ends first, so that each path is walked from one of its ends
    ends = [v for v, at in enumerate(incident) if len(at) == 1]
    for start in ends + [v for v, at in enumerate(incident) if len(at) > 1]:
        if seen[start]:
            continue
        seen[start] = True
        # walk: the edges to new vertices, in order along a path
        stack, walk, found, simple = [start], [], set(), True
        while stack:
            v = stack.pop()
            simple = simple and len(incident[v]) <= 2
            found.update(incident[v])
            for i in incident[v]:
                w = edges[i][0] + edges[i][1] - v
                if not seen[w]:
                    seen[w] = True
                    walk.append(i)
                    stack.append(w)
        k = len(found)
        if simple and k > len(walk):  # a cycle: one orbit per length
            for i in found:
                orbit[i] = (0, k)
        elif simple:  # a path: one orbit per length and distance from an end
            for j, i in enumerate(walk):
                orbit[i] = (1, k, min(j, k - 1 - j))
    first: dict[tuple[int, ...], int] = {}
    for i, key in enumerate(orbit):
        first.setdefault(key, i)
    return sum(1 << i for i in first.values())


def exhaustive_search(
    topology: GraphTopology,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Find an odd graceful labeling or prove none exists, within budget.

    Returns FOUND with the first certificate in difference-first order
    (re-checked by the verifier before being returned), EXHAUSTED_NONE once
    the full symmetry-reduced space is explored, or BUDGET_EXHAUSTED.
    Identical inputs always produce identical outcomes and statistics.
    """
    budget = budget or SearchBudget()
    if topology.q < 1:
        raise ValueError("search needs a topology with at least one edge")

    q, two_q = topology.q, 2 * topology.q
    edges = topology.edges
    label = [-1] * len(topology.names)
    if len(label) > two_q:  # not enough distinct labels
        return SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, SearchStats(0, 0))
    neighbors: list[list[int]] = [[] for _ in label]
    incident = [0] * len(label)  # bit i per edge i at the vertex
    for i, (a, b) in enumerate(edges):
        neighbors[a].append(b)
        neighbors[b].append(a)
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    odd = int("10" * q, 2)  # bit d for every odd d < 2q: all differences induced
    # free: unused labels; used: bit d per induced difference d; undone: bit i
    # per edge with an unlabelled end; touched: the edges at labelled vertices
    free, used, undone, touched = (1 << two_q) - 1, 0, (1 << q) - 1, 0
    roots = root_edges(topology)  # the edges 2q-1 may take
    # the explicit stack: each lower level's D, edge, untried mask and entry bitsets
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    # this level: difference D placed on edge e, trying the placements in mask;
    # on a pair edge bit x puts x on the first end, bit 2q + x puts x on the second
    d_top, e, mask = two_q - 1, -1, 0
    nodes = tried = 0
    status = SearchStatus.EXHAUSTED_NONE
    max_nodes, limit = budget.max_nodes, budget.time_limit_ms
    try:
        deadline = None if limit is None else time.perf_counter() + limit / 1000.0
    except OverflowError:  # a limit beyond any float is never reached
        deadline = None

    while True:
        if not mask:
            # this edge is spent: move to the next undone edge at this level
            rest = (undone if stack else roots) >> e + 1
            if not rest:
                # no edge left for D: resume the level below past its placement
                if not stack:
                    break
                d_top, e, mask, free, used, undone, touched = stack.pop()
                for v in edges[e]:
                    if free >> label[v] & 1:  # labelled at that level
                        label[v] = -1
                continue
            e += (rest & -rest).bit_length()
            a, b = edges[e]
            c = label[a] if label[a] >= 0 else label[b]
            if c >= 0:
                mask = free & (1 << c + d_top | (1 << c - d_top if c >= d_top else 0))
            else:
                mask = free & (free >> d_top)
                if stack:  # complement symmetry: one orientation at the root
                    mask |= mask << two_q
            continue
        bit = mask & -mask
        mask ^= bit
        x = bit.bit_length() - 1
        tried += 1
        a, b = edges[e]
        if label[a] >= 0:
            placing = ((b, x),)
        elif label[b] >= 0:
            placing = ((a, x),)
        elif x < two_q:
            placing = ((a, x), (b, x + d_top))
        else:
            x -= two_q
            placing = ((a, x + d_top), (b, x))
        # every edge this placement completes must be odd and new
        new = used
        for v, value in placing:
            label[v] = value
            for w in neighbors[v]:
                c = label[w]
                if c >= 0:
                    d = value - c if value > c else c - value
                    if not d & 1 or new >> d & 1:
                        break
                    new |= 1 << d
            else:
                continue
            break
        else:
            nodes += 1
            if nodes > max_nodes or deadline is not None and time.perf_counter() > deadline:
                status = SearchStatus.BUDGET_EXHAUSTED
                break
            stack.append((d_top, e, mask, free, used, undone, touched))
            for v, value in placing:
                free ^= 1 << value
                undone &= ~(incident[v] & touched)
                touched |= incident[v]
            used = new
            if used == odd:
                status = SearchStatus.FOUND
                break
            d_top, e, mask = (odd & ~used).bit_length() - 1, -1, 0
            continue
        for v, _ in placing:
            label[v] = -1

    stats = SearchStats(nodes_expanded=nodes, assignments_tried=tried)
    if status is not SearchStatus.FOUND:
        return SearchOutcome(status, None, stats)
    for v, value in enumerate(label):
        if value < 0:  # isolated: the lowest free label
            bit = free & -free
            free ^= bit
            label[v] = bit.bit_length() - 1
    labeling = tuple(label)
    report = verify_odd_graceful(topology, labeling)
    if not report.is_odd_graceful:
        details = "; ".join(v.describe() for v in report.violations)
        raise RuntimeError(f"search produced an invalid certificate: {details}")
    return SearchOutcome(SearchStatus.FOUND, labeling, stats)
