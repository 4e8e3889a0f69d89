"""Graph topologies and the (m, n) gate shared by all other modules.

A topology lists its vertices in one canonical order and refers to them by
position everywhere: edges are ``(i, j)`` index pairs with ``i < j`` and a
labeling is a tuple of ints in vertex order. Vertex names exist only for
text: cycle vertices are ``u1..um``, path vertices ``v1..vn``, and free
vertices (arbitrary graphs fed to the search oracle) ``w1, w2, ...``. The
edge list keeps construction order (cycle edges first, then path edges), so
repeated builds with equal inputs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    CycleTooSmallError,
    EmptyGraphError,
    OddCycleError,
    PathTooShortError,
    SelfLoopError,
)

# One label per vertex, in the topology's vertex order. Injectivity is the
# verifier's concern, so invalid candidates are representable on purpose.
Labeling = tuple[int, ...]


@dataclass(frozen=True)
class GraphTopology:
    """Immutable vertex/edge structure; ``m`` and ``n`` are 0 for free graphs."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    m: int
    n: int

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate vertex names in topology")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge in topology")
        for a, b in self.edges:
            if not 0 <= a < b < len(self.names):
                raise ValueError(f"edge ({a}, {b}) is not an index pair i < j into the vertices")

    @property
    def q(self) -> int:
        return len(self.edges)


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


def build_union_graph(m: int, n: int) -> GraphTopology:
    """Build the disjoint union of an even cycle on ``m`` vertices and a path on ``n``.

    Vertices are ordered u1..um then v1..vn; edges are the m cycle edges
    (u1u2, ..., u(m-1)um, u1um) followed by the n-1 path edges. Only the
    topology-level constraints are enforced here (m even and at least 4,
    n at least 1); the constructor applies its stronger path-length bound,
    so out-of-range instances remain representable for study.
    """
    check_union_size(m, n, 1)
    names = [f"u{i}" for i in range(1, m + 1)]
    names.extend(f"v{j}" for j in range(1, n + 1))
    edges = [(i, i + 1) for i in range(m - 1)]
    edges.append((0, m - 1))
    edges.extend((j, j + 1) for j in range(m, m + n - 1))
    return GraphTopology(names=tuple(names), edges=tuple(edges), m=m, n=n)


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
    return GraphTopology(
        names=tuple(f"w{v}" for v in vertices),
        edges=tuple((position[a], position[b]) for a, b in pairs),
        m=0,
        n=0,
    )
