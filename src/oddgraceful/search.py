"""Exhaustive backtracking search for odd graceful labelings of small graphs.

Labels are assigned depth-first in a connectivity-respecting vertex order, so
each new assignment completes as many edges as possible and edge pruning
bites early. Int bitsets hold the unused labels and the placed differences;
on entering a depth, shifts and masks over its labelled neighbours build one
mask of candidate labels, taken lowest first. Masks stay on an explicit stack
while deeper levels run, so the depth is bounded by the budget, not by the
recursion limit. Solutions come in complement pairs (f and 2q-1-f), so the
first assigned vertex only needs labels 0..q-1; that restriction can be
disabled and must not change any verdict.

Exhaustion cost grows factorially beyond q of roughly 10; a larger graph runs
until a labeling is found or the budget runs out.
"""

from __future__ import annotations

import enum
import heapq
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
    """nodes_expanded counts consistent partial assignments reached;

    assignments_tried counts labels passed over in assignment order, pruned
    ones included.
    """

    nodes_expanded: int
    assignments_tried: int


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    labeling: Labeling | None
    stats: SearchStats


def assignment_order(topology: GraphTopology) -> tuple[int, ...]:
    """Fixed assignment order of vertex indices: grow a connected frontier,
    isolated vertices last.

    The next vertex is the smallest index adjacent to the placed set; a new
    component starts from its smallest index. A heap holds the frontier, so
    this takes O((V + E) log V).
    """
    neighbors: list[list[int]] = [[] for _ in topology.names]
    for a, b in topology.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    placed = [False] * len(neighbors)
    order: list[int] = []
    for start, adjacent in enumerate(neighbors):
        frontier = [start] if adjacent and not placed[start] else []
        while frontier:
            vertex = heapq.heappop(frontier)
            if placed[vertex]:
                continue
            placed[vertex] = True
            order.append(vertex)
            for other in neighbors[vertex]:
                if not placed[other]:
                    heapq.heappush(frontier, other)
    order.extend(v for v, adjacent in enumerate(neighbors) if not adjacent)
    return tuple(order)


def exhaustive_search(
    topology: GraphTopology,
    budget: SearchBudget | None = None,
    *,
    complement_symmetry: bool = True,
) -> SearchOutcome:
    """Find an odd graceful labeling or prove none exists, within budget.

    Returns FOUND with the first certificate in assignment order (re-checked
    by the verifier before being returned), EXHAUSTED_NONE once the full
    symmetry-reduced space is explored, or BUDGET_EXHAUSTED. Identical inputs
    always produce identical outcomes and statistics.
    """
    budget = budget or SearchBudget()
    if topology.q < 1:
        raise ValueError("search needs a topology with at least one edge")

    q, two_q = topology.q, 2 * topology.q
    order = assignment_order(topology)
    size = len(order)
    position = {v: depth for depth, v in enumerate(order)}
    # for each depth, the depths of its already-assigned neighbors, and their pairs
    earlier: list[list[int]] = [[] for _ in order]
    for a, b in topology.edges:
        low, high = sorted((position[a], position[b]))
        earlier[high].append(low)
    pairs = [[(a, b) for i, a in enumerate(e) for b in e[:i]] for e in earlier]
    # span[depth] has a bit for each label tried at that depth, tried lowest first
    span = [(1 << two_q) - 1] * size
    span[0] = (1 << (q if complement_symmetry else two_q)) - 1
    opposite = (int("10" * q, 2), int("01" * q, 2))  # odd distance from c, by c & 1
    # free: unused labels; used: bit d per placed difference d; mirror: bit 2q-d
    free, used, mirror = (1 << two_q) - 1, 0, 0
    # the explicit stack: each depth's label, untried candidates and entry bitsets
    chosen, candidates, saved = [0] * size, [0] * size, [(0, 0, 0)] * size
    nodes = tried = 0
    status = SearchStatus.EXHAUSTED_NONE
    limit = budget.time_limit_ms
    try:
        deadline = None if limit is None else time.perf_counter() + limit / 1000.0
    except OverflowError:  # a limit beyond any float is never reached
        deadline = None

    depth = start = 0
    while depth < size:
        mask = candidates[depth]
        if not start:
            # entering this depth: keep the free labels whose new edges are all odd,
            # unused and distinct; two are alike only at two neighbours' midpoint
            mask = free & span[depth]
            for other in earlier[depth]:
                c = chosen[other]
                mask &= opposite[c & 1] & ~((used << c) | (mirror >> (two_q - c)))
            for a, b in pairs[depth]:  # mixed parities have already emptied the mask
                mask &= ~(1 << ((chosen[a] + chosen[b]) >> 1))
        if not mask:
            # no label left at this depth: resume the one below past its label
            tried += span[depth].bit_length() - start
            if depth == 0:
                break
            depth -= 1
            free, used, mirror = saved[depth]
            start = chosen[depth] + 1
            continue
        bit = mask & -mask
        candidates[depth] = mask ^ bit
        label = bit.bit_length() - 1
        tried += label - start + 1
        nodes += 1
        if nodes > budget.max_nodes or deadline is not None and time.perf_counter() > deadline:
            status = SearchStatus.BUDGET_EXHAUSTED
            break
        saved[depth] = free, used, mirror
        chosen[depth] = label
        free ^= bit
        for other in earlier[depth]:
            diff = abs(label - chosen[other])
            used |= 1 << diff
            mirror |= 1 << (two_q - diff)
        depth, start = depth + 1, 0

    stats = SearchStats(nodes_expanded=nodes, assignments_tried=tried)
    if depth < size:
        return SearchOutcome(status, None, stats)
    labeling = tuple(chosen[position[v]] for v in range(len(topology.names)))
    report = verify_odd_graceful(topology, labeling)
    if not report.is_odd_graceful:
        details = "; ".join(v.describe() for v in report.violations)
        raise RuntimeError(f"search produced an invalid certificate: {details}")
    return SearchOutcome(SearchStatus.FOUND, labeling, stats)
