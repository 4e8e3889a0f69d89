"""Exhaustive backtracking search for odd graceful labelings of small graphs.

The search is difference-first, after Aldred & McKay (Bull. ICA 23, 1998)
and Horton, *Graceful Trees: Statistics and Algorithms* (2003). Each level
places D, the largest odd difference not yet induced: in any labeling some
undone edge carries D, so the level tries each undone edge in edge order.
An edge with both ends unlabelled takes a pair of free labels (x, x + D):
first each pair with x on its first end, lowest x first, then each with x on
its second end. An edge with one end labelled c gives its other end c - D or
c + D, lower first. A placement stands only if every edge it completes has
a difference not yet induced, checked on the ``free`` (unused labels) and
``used`` (induced differences) bitsets; the parity cut below has already
made that difference odd. The first level places 2q-1, so it puts 0 and
2q-1 on one edge.

Each level of the explicit stack holds a few ints: D, the edge, the mask of
untried placements and the entry ``free``, ``used``, ``undone`` and
``opened`` (bit k per component that holds a label). A backtrack restores
them and clears only the labels its own level placed. The depth is at most
q, whatever the recursion limit. Once every difference is induced, every
edge is done, and isolated vertices take the lowest free labels. A graph
with more vertices than 2q labels has no labeling and ends at once.

Every edge difference is odd, so the ends of an edge have labels of opposite
parity: label parity 2-colours the graph (Gnanajothi's reason that C_m is odd
graceful only for even m). A graph with an odd cycle therefore has no
labeling, and the search proves it before the first node. Otherwise, within
a connected component one side takes only even labels and the other only
odd ones, and the component's first label fixes which. One walk of each
component finds its sides and an odd cycle. In a component that already has
a label, parity leaves each x of a pair edge one orientation; a pair edge
that opens a component tries both.

Odd cycles (C3, C5, ..., C13 and beyond) are proven at 0 nodes. Search cost
still grows exponentially with q: C24+P5 is found in 99,387 nodes (352,066
tries, about 0.5 s) and C26+P5 in 1,256,083 (5,675,273 tries, about 6 s). A
larger graph runs until a labeling is found or the budget runs out.
"""

from __future__ import annotations

import enum
import time
from collections import namedtuple
from typing import NamedTuple

from .graphs import Labeling, Topology
from .verification import verify_odd_graceful


class SearchStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted-none"
    BUDGET_EXHAUSTED = "budget-exhausted"


class SearchBudget(namedtuple("SearchBudget", "max_nodes time_limit_ms", defaults=(10**8, None))):
    """Node cap (and optional wall-clock cap) for one search."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.time_limit_ms is not None and self.time_limit_ms < 1:
            raise ValueError(f"time_limit_ms must be positive, got {self.time_limit_ms}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class SearchStats(NamedTuple):
    """Work done by one search.

    nodes_expanded: placements that passed their check, one per partial labeling reached.
    assignments_tried: placements attempted, failed ones included.
    proof: why no labeling exists when that was shown before the first node,
        "odd cycle" or "more vertices than labels"; otherwise None.
    """

    nodes_expanded: int
    assignments_tried: int
    proof: str | None = None


class SearchOutcome(NamedTuple):
    status: SearchStatus
    labeling: Labeling | None
    stats: SearchStats


def exhaustive_search(
    topology: Topology,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Find an odd graceful labeling or prove none exists, within budget.

    Returns FOUND with the first certificate in difference-first order
    (re-checked by the verifier before being returned), EXHAUSTED_NONE once
    the search space is exhausted or ``stats.proof`` rules out every labeling
    before the first node, or BUDGET_EXHAUSTED.
    Identical inputs always produce identical outcomes and statistics.
    """
    budget = budget or SearchBudget()
    if topology.q < 1:
        raise ValueError("search needs a topology with at least one edge")

    q, two_q = topology.q, 2 * topology.q
    edges = topology.edges
    label = [-1] * topology.p
    if len(label) > two_q:  # not enough distinct labels
        stats = SearchStats(0, 0, "more vertices than labels")
        return SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, stats)
    # each neighbour with the bit of the edge to it
    neighbors: list[list[tuple[int, int]]] = [[] for _ in label]
    for i, (a, b) in enumerate(edges):
        neighbors[a].append((b, 1 << i))
        neighbors[b].append((a, 1 << i))
    # one walk of each component: each vertex's side (0 or 1) and component
    side, component, k = [-1] * len(label), [0] * len(label), 0
    for start in range(len(label)):
        if side[start] >= 0:
            continue
        side[start], component[start], todo = 0, k, [start]
        while todo:
            v = todo.pop()
            for w, _ in neighbors[v]:
                if side[w] < 0:
                    side[w], component[w] = side[v] ^ 1, k
                    todo.append(w)
                elif side[w] == side[v]:  # an odd cycle: labels cannot alternate parity
                    stats = SearchStats(0, 0, "odd cycle")
                    return SearchOutcome(SearchStatus.EXHAUSTED_NONE, None, stats)
        k += 1
    parity = [0] * k  # per opened component: the label parity of its side 0
    odd = int("10" * q, 2)  # bit d for every odd d < 2q: all differences induced
    evens = odd >> 1  # bit x for every even x < 2q
    # free: unused labels; used: bit d per induced difference d; undone: bit i
    # per edge with an unlabelled end; opened: bit k per component with a label
    free, used, undone, opened = (1 << two_q) - 1, 0, (1 << q) - 1, 0
    stack: list[tuple[int, int, int, int, int, int, int]] = []  # the lower levels
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
            rest = undone >> e + 1
            if not rest:
                # no edge left for D: resume the level below past its placement
                if not stack:
                    break
                d_top, e, mask, free, used, undone, opened = stack.pop()
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
                k = component[a]
                if opened >> k & 1:  # parity fixes the orientation of each x
                    keep = evens if parity[k] == side[a] else ~evens
                    mask = mask & keep | (mask & ~keep) << two_q
                else:  # the component's first pair: both orientations
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
        # every edge this placement completes must carry a new difference
        new, done = used, 0
        for v, value in placing:
            label[v] = value
            for w, edge in neighbors[v]:
                c = label[w]
                if c >= 0:
                    d = value - c if value > c else c - value
                    if new >> d & 1:
                        break
                    new |= 1 << d
                    done |= edge
            else:
                continue
            break
        else:
            nodes += 1
            if nodes > max_nodes or deadline is not None and time.perf_counter() > deadline:
                status = SearchStatus.BUDGET_EXHAUSTED
                break
            stack.append((d_top, e, mask, free, used, undone, opened))
            for v, value in placing:
                free ^= 1 << value
                k = component[v]
                if not opened >> k & 1:
                    opened |= 1 << k
                    parity[k] = value & 1 ^ side[v]
            used, undone = new, undone & ~done
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
