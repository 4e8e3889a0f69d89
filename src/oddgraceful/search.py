"""Exhaustive backtracking search for odd graceful labelings of small graphs.

Labels are assigned depth-first in a connectivity-respecting vertex order, so
each new assignment completes as many edges as possible and edge pruning
bites early. A branch is cut as soon as a vertex label repeats or a completed
edge realizes an even or already-used difference. Solutions come in
complement pairs (f and 2q-1-f), so the first assigned vertex only needs
labels 0..q-1; that restriction can be disabled and must not change any
verdict.

Intended for desk-scale graphs (q up to roughly 10); exhaustion cost grows
factorially beyond that.
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
    """nodes_expanded counts consistent partial assignments reached;

    assignments_tried counts every label attempt, pruned ones included.
    """

    nodes_expanded: int
    assignments_tried: int


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    labeling: Labeling | None
    stats: SearchStats


def _neighbors(topology: GraphTopology) -> list[list[int]]:
    neighbors: list[list[int]] = [[] for _ in topology.names]
    for a, b in topology.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return neighbors


def assignment_order(topology: GraphTopology) -> tuple[int, ...]:
    """Fixed assignment order of vertex indices: grow a connected frontier,
    isolated vertices last.

    Each vertex after the first is adjacent to an already-ordered one where
    the graph allows (new components restart from their smallest index).
    """
    neighbors = _neighbors(topology)
    connected = [v for v, ns in enumerate(neighbors) if ns]
    isolated = [v for v, ns in enumerate(neighbors) if not ns]
    order: list[int] = []
    placed: set[int] = set()
    while len(order) < len(connected):
        frontier = [
            v
            for v in connected
            if v not in placed and any(u in placed for u in neighbors[v])
        ]
        pool = frontier or [v for v in connected if v not in placed]
        chosen = min(pool)
        order.append(chosen)
        placed.add(chosen)
    order.extend(isolated)
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
    if budget is None:
        budget = SearchBudget()
    if topology.q < 1:
        raise ValueError("search needs a topology with at least one edge")

    q = topology.q
    order = assignment_order(topology)
    neighbors = _neighbors(topology)
    position = {v: p for p, v in enumerate(order)}
    # for each depth, positions of already-assigned neighbors
    earlier = [
        tuple(position[u] for u in neighbors[v] if position[u] < position[v])
        for v in order
    ]

    label_used = [False] * (2 * q)
    diff_used = [False] * (2 * q)
    chosen = [0] * len(order)
    nodes = 0
    tried = 0
    out_of_budget = False
    deadline = None
    if budget.time_limit_ms is not None:
        deadline = time.perf_counter() + budget.time_limit_ms / 1000.0

    def descend(depth: int) -> bool:
        nonlocal nodes, tried, out_of_budget
        if depth == len(order):
            return True
        top = q - 1 if (complement_symmetry and depth == 0) else 2 * q - 1
        for label in range(top + 1):
            tried += 1
            if label_used[label]:
                continue
            committed: list[int] = []
            feasible = True
            for other in earlier[depth]:
                diff = abs(label - chosen[other])
                if diff % 2 == 0 or diff_used[diff]:
                    feasible = False
                    break
                diff_used[diff] = True
                committed.append(diff)
            if feasible:
                nodes += 1
                if nodes > budget.max_nodes or (
                    deadline is not None and time.perf_counter() > deadline
                ):
                    out_of_budget = True
                else:
                    label_used[label] = True
                    chosen[depth] = label
                    if descend(depth + 1):
                        return True
                    label_used[label] = False
            for diff in committed:
                diff_used[diff] = False
            if out_of_budget:
                return False
        return False

    found = descend(0)
    stats = SearchStats(nodes_expanded=nodes, assignments_tried=tried)
    if found:
        labeling = tuple(chosen[position[v]] for v in range(len(topology.names)))
        report = verify_odd_graceful(topology, labeling)
        if not report.is_odd_graceful:
            details = "; ".join(v.describe() for v in report.violations)
            raise RuntimeError(f"search produced an invalid certificate: {details}")
        return SearchOutcome(SearchStatus.FOUND, labeling, stats)
    if out_of_budget:
        return SearchOutcome(SearchStatus.BUDGET_EXHAUSTED, None, stats)
    return SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, stats)
