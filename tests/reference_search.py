"""Reference search oracle for differential tests: the vertex-order loop.

This is the search as it stood before the difference-first oracle replaced
it, kept as test code only. Vertices are labelled one at a time in
``assignment_order``, and every label is tried on its own against
``label_used`` and ``diff_used`` lists. It explores the same space in
another order, so the production oracle must reach the same verdicts, not
the same statistics or certificates.
"""

from __future__ import annotations

import heapq
import time

from oddgraceful.graphs import GraphTopology
from oddgraceful.search import SearchBudget, SearchOutcome, SearchStats, SearchStatus
from oddgraceful.verification import verify_odd_graceful


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


def reference_search(
    topology: GraphTopology,
    budget: SearchBudget | None = None,
    *,
    complement_symmetry: bool = True,
) -> SearchOutcome:
    if budget is None:
        budget = SearchBudget()
    if topology.q < 1:
        raise ValueError("search needs a topology with at least one edge")

    q = topology.q
    order = assignment_order(topology)
    size = len(order)
    position = {v: depth for depth, v in enumerate(order)}
    # for each depth, the depths of its already-assigned neighbors
    earlier: list[list[int]] = [[] for _ in order]
    for a, b in topology.edges:
        low, high = sorted((position[a], position[b]))
        earlier[high].append(low)
    top = [2 * q - 1] * size
    if complement_symmetry:
        top[0] = q - 1

    label_used = [False] * (2 * q)
    diff_used = [False] * (2 * q)
    # the explicit stack: each depth's label and the differences it committed
    chosen = [0] * size
    committed: list[list[int]] = [[] for _ in order]
    nodes = tried = 0
    status = SearchStatus.EXHAUSTED_NONE
    deadline = None
    if budget.time_limit_ms is not None:
        deadline = time.perf_counter() + budget.time_limit_ms / 1000.0

    depth = start = 0
    while depth < size:
        for label in range(start, top[depth] + 1):
            tried += 1
            if label_used[label]:
                continue
            diffs: list[int] = []
            for other in earlier[depth]:
                diff = abs(label - chosen[other])
                if diff % 2 == 0 or diff_used[diff]:
                    break
                diff_used[diff] = True
                diffs.append(diff)
            else:
                break  # every completed edge is odd and new: place this label
            for diff in diffs:
                diff_used[diff] = False
        else:
            # no label left at this depth: undo the one below and move past it
            if depth == 0:
                break
            depth -= 1
            label_used[chosen[depth]] = False
            for diff in committed[depth]:
                diff_used[diff] = False
            start = chosen[depth] + 1
            continue
        nodes += 1
        if nodes > budget.max_nodes or (
            deadline is not None and time.perf_counter() > deadline
        ):
            status = SearchStatus.BUDGET_EXHAUSTED
            break
        label_used[label] = True
        chosen[depth] = label
        committed[depth] = diffs
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
