"""Graph topologies and the (m, n) gate shared by all other modules.

A topology lists its vertices in one canonical order and refers to them by
position everywhere: edges are ``(i, j)`` index pairs with ``i < j`` and a
labeling is a tuple of ints in vertex order. Vertex names exist only for
text: cycle vertices are ``u1..um``, path vertices ``v1..vn``, and free
vertices (arbitrary graphs fed to the search oracle) ``w1, w2, ...``. The
edge list keeps construction order (cycle edges first, then path edges), so
repeated builds with equal inputs are identical.

Both kinds are named tuples, checked when made. A ``UnionTopology`` C_m + P_n
is the tuple (m, n): its equality, hash and repr read only them, and
``_replace``, ``copy`` and unpickling give a checked union. Its names and
edges follow from them. ``name_columns`` gives each name as a stem and an
index, u or v and a 1-based index made from m and n as they are taken, and
``end_names`` the same at the edges' two ends, so a writer writes a name
without a stored one. ``ends`` gives any per-vertex column at the edges' two
ends as ``islice``s of that column, which copy nothing, so the verifier and
the writers never build the edge list. A ``GraphTopology`` is a free graph
from outside the program: it holds and checks its names and edges, its names
are stems with an empty index, and its ``m`` and ``n`` are 0.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    CycleTooSmallError,
    EmptyGraphError,
    OddCycleError,
    PathTooShortError,
    SelfLoopError,
)

# every name a topology gives a vertex: u_i, v_j or w_k
VERTEX_NAME = re.compile(r"[uvw][1-9][0-9]*")

# One label per vertex, in the topology's vertex order. Injectivity is the
# verifier's concern, so invalid candidates are representable on purpose.
Labeling = tuple[int, ...]


class GraphTopology(namedtuple("GraphTopology", "names edges")):
    """A free graph: its vertex names and its edges as index pairs, checked
    on construction; ``p`` and ``q`` count the vertices and the edges."""

    __slots__ = ()
    m = n = 0  # a free graph is no union

    def __new__(cls, names: tuple[str, ...], edges: tuple[tuple[int, int], ...]):
        self = super().__new__(cls, names, edges)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate vertex names in topology")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge in topology")
        for a, b in self.edges:
            if not 0 <= a < b < len(self.names):
                raise ValueError(f"edge ({a}, {b}) is not an index pair i < j into the vertices")
        return self

    # so that _replace, like copy and unpickling, makes it through the check
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def p(self) -> int:
        return len(self.names)

    @property
    def q(self) -> int:
        return len(self.edges)

    def name_columns(self, escape: Callable[[str], str] = str) -> tuple[Iterable, Iterable]:
        """Each vertex's name as a stem and an index, in vertex order: the
        stem is the stored name through ``escape``, and the index is empty."""
        return map(escape, self.names), repeat("")

    def end_names(self, escape: Callable[[str], str] = str) -> tuple[Iterable, ...]:
        """The stem and the index of each edge's first end's name, then of
        its second's, in edge order, as :meth:`name_columns` gives them."""
        first, second = self.ends(tuple(map(escape, self.names)))
        return first, repeat(""), second, repeat("")

    def ends(self, column: Sequence) -> tuple[Iterable, Iterable]:
        """The entries of a per-vertex ``column`` at each edge's first and at
        its second end, in edge order."""
        at = column.__getitem__
        return map(at, map(itemgetter(0), self.edges)), map(at, map(itemgetter(1), self.edges))


class UnionTopology(namedtuple("UnionTopology", "m n")):
    """C_m + P_n, holding only m and n; ``names`` and ``edges`` are computed
    on each access."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        check_union_size(m, n, 1)
        return super().__new__(cls, m, n)

    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(map("{}{}".format, *self.name_columns()))

    def name_columns(self, escape: Callable[[str], str] = str) -> tuple[Iterable, Iterable]:
        """Each vertex's name as a stem and an index, in vertex order: u_i is
        u and i, v_j is v and j, made as they are taken. The stems need no
        ``escape``."""
        m, n = self.m, self.n
        return chain(repeat("u", m), repeat("v", n)), chain(range(1, m + 1), range(1, n + 1))

    def end_names(self, escape: Callable[[str], str] = str) -> tuple[Iterable, ...]:
        """The stem and the index of each edge's first end's name, then of
        its second's, in the edge order of :meth:`ends`."""
        # u_i u_(i+1), then the closing edge u_1 u_m, then v_j v_(j+1)
        m, n = self.m, self.n
        return (
            chain(repeat("u", m), repeat("v", n - 1)),
            chain(range(1, m), (1,), range(1, n)),
            chain(repeat("u", m), repeat("v", n - 1)),
            chain(range(2, m + 1), (m,), range(2, n + 1)),
        )

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.ends(range(self.m + self.n))))

    @property
    def p(self) -> int:
        return self.m + self.n

    @property
    def q(self) -> int:
        return self.m + self.n - 1

    def ends(self, column: Sequence) -> tuple[Iterable, Iterable]:
        """The entries of a per-vertex ``column`` at each edge's first and at
        its second end, in edge order, read from the column in place."""
        # the cycle's edges (i, i + 1), its closing edge (0, m - 1), the path's (j, j + 1)
        m = self.m
        return (
            chain(islice(column, m - 1), islice(column, 1), islice(column, m, self.p - 1)),
            chain(islice(column, 1, m), islice(column, m - 1, m), islice(column, m + 1, None)),
        )


Topology = GraphTopology | UnionTopology


def check_union_size(m: int, n: int, required: int) -> None:
    """The one gate for C_m + P_n sizes: m even and at least 4, n >= ``required``.

    ``required`` is 1 for the topology itself and the construction's
    ``min_path_length(m)`` when its bound applies.
    """
    if m % 2:
        raise OddCycleError(
            f"cycle length {m} is odd; graphs with an odd cycle are never odd graceful"
        )
    if m < 4:
        raise CycleTooSmallError(f"cycle length must be at least 4, got {m}")
    if n < required:
        if required == 1:
            message = f"path length must be at least 1, got {n}"
        else:
            # search refuses a P1 term, which has no edges
            advice = "search may still find a labeling" if n > 1 else "generate --force builds it"
            message = (
                f"C{m}+P{n} is out of range for this construction: need n >= {required}"
                f" (the bound limits the construction, not odd gracefulness; {advice})"
            )
        raise PathTooShortError(message, required=required)


def build_union_graph(m: int, n: int) -> UnionTopology:
    """Build the disjoint union of an even cycle on ``m`` vertices and a path on ``n``.

    Vertices are ordered u1..um then v1..vn; edges are the m cycle edges
    (u1u2, ..., u(m-1)um, u1um) followed by the n-1 path edges. Only the
    topology-level constraints are enforced here (m even and at least 4,
    n at least 1); the constructor applies its stronger path-length bound,
    so out-of-range instances remain representable for study.
    """
    return UnionTopology(m, n)


def build_free_graph(edge_list: Iterable[tuple[int, int]]) -> GraphTopology:
    """Build a topology over free vertices from 1-based index pairs.

    Duplicate edges collapse (endpoint order ignored); edge order follows
    first occurrence. Vertices are the distinct endpoints in ascending order.
    This is the input path for arbitrary small graphs handed to the search
    oracle.
    """
    pairs: dict[tuple[int, int], None] = {}
    for a, b in edge_list:
        if a < 1 or b < 1:
            raise ValueError(f"vertex indices must be positive, got ({a}, {b})")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        pairs.setdefault((min(a, b), max(a, b)))
    if not pairs:
        raise EmptyGraphError("a labeling problem needs at least one edge")
    vertices = sorted({v for pair in pairs for v in pair})
    position = {v: i for i, v in enumerate(vertices)}
    names = tuple(f"w{v}" for v in vertices)
    return GraphTopology(names, tuple((position[a], position[b]) for a, b in pairs))
