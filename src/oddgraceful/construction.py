"""Two independent routes to an odd graceful labeling of C_m + P_n.

Throughout, q = m + n - 1 is the edge count and k = m / 2. The construction
alternates: odd cycle positions take the small even values 0, 2, 4, ...,
even cycle positions take the largest odd values 2q-1, 2q-3, ..., and the
last cycle vertex u_m takes the exceptional value 2q - 2m + 3. That exception
frees the odd values below 2q - 2m + 3 for the path edges, except one: the
value 2q - 3m + 5 is already realized inside the cycle (on the edge
u_{m-1}u_m), so the path edge sequence must jump over it.

``closed_form_labeling`` evaluates per-index formulas; ``algorithmic_labeling``
streams the same labels the way a single traversal would, seeded by the two
marker values above. Both are pure functions of the params and must agree
pointwise -- the test suite enforces that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Labeling, check_union_size


@dataclass(frozen=True)
class ConstructionParams:
    """A gated cycle/path size pair; build it with :func:`validate_params`.

    m: cycle length (even, at least 4)
    n: path length
    """

    m: int
    n: int

    @property
    def q(self) -> int:
        """Edge count, m + n - 1."""
        return self.m + self.n - 1

    @property
    def k(self) -> int:
        """Half the cycle length."""
        return self.m // 2


def min_path_length(m: int) -> int:
    """Smallest n for which this construction stays injective at cycle length m.

    The even path labels descend toward the even cycle labels; requiring the
    smallest of the former to clear m - 2 (the largest of the latter) gives
    n >= m - 1 when k is even and n >= m - 3 when k is odd. Below it the
    construction fails, but the graph may still be odd graceful.
    """
    return m - 1 if (m // 2) % 2 == 0 else m - 3


def validate_params(m: int, n: int) -> ConstructionParams:
    """Gate a (m, n) pair for construction, path-length bound included."""
    check_union_size(m, n, min_path_length(m))
    return ConstructionParams(m=m, n=n)


def force_params(m: int, n: int) -> ConstructionParams:
    """Like :func:`validate_params` but skip the path-length bound.

    Lets callers build out-of-range instances on purpose, so the verifier can
    show exactly where the construction breaks. Odd or undersized cycles are
    still rejected: there is nothing to construct for them.
    """
    check_union_size(m, n, 1)
    return ConstructionParams(m=m, n=n)


@dataclass(frozen=True)
class Markers:
    """Seed values computed before any vertex is touched.

    ``active_vertex_label`` is the exceptional label of u_m, the smallest odd
    label inside the cycle. ``double_jump_edge_label`` is the induced label of
    the edge u_{m-1}u_m, the one odd value the path pass must skip. Both
    depend on (q, m) alone and are odd and positive for validated params.
    """

    active_vertex_label: int
    double_jump_edge_label: int


def init_markers(params: ConstructionParams) -> Markers:
    q, m = params.q, params.m
    return Markers(
        active_vertex_label=2 * q - 2 * m + 3,
        double_jump_edge_label=2 * q - 3 * m + 5,
    )


def label_cycle_vertices(params: ConstructionParams) -> Labeling:
    """Closed-form labels for u_1..u_m.

    Odd positions carry 0, 2, 4, ...; even positions carry 2q-1, 2q-3, ...;
    u_m is the exception at 2q - 2m + 3.
    """
    q, m = params.q, params.m
    labels: list[int] = []
    for i in range(1, m + 1):
        if i == m:
            value = 2 * q - 2 * m + 3
        elif i % 2:
            value = i - 1
        else:
            value = 2 * q - (i - 1)
        labels.append(value)
    return tuple(labels)


def label_path_vertices(params: ConstructionParams) -> Labeling:
    """Closed-form labels for v_1..v_n; the formulas split on the parity of k.

    Odd positions carry small odd labels ascending from 1, even positions
    carry large even labels descending from 2q - 2m + 2. One of the two
    families takes a single extra step (which one depends on k's parity), so
    the induced path edge labels miss exactly the odd value already spent on
    the cycle edge u_{m-1}u_m.
    """
    q, m, n, k = params.q, params.m, params.n, params.k
    labels: list[int] = []
    if k % 2:
        for i in range(1, n + 1):
            if i % 2:
                labels.append(i if i <= k - 2 else i + 2)
            else:
                labels.append(2 * q - 2 * m - (i - 4))
    else:
        for i in range(1, n + 1):
            if i % 2:
                labels.append(i)
            elif i <= k - 2:
                labels.append(2 * q - 2 * m + 4 - i)
            else:
                labels.append(2 * q - 2 * m + 2 - i)
    return tuple(labels)


def closed_form_labeling(params: ConstructionParams) -> Labeling:
    """Full labeling by direct formula evaluation (cycle labels, then path labels)."""
    return label_cycle_vertices(params) + label_path_vertices(params)


def cycle_pass(params: ConstructionParams, markers: Markers) -> tuple[Labeling, tuple[int, ...]]:
    """Label u_1..u_m by walking the cycle once; returns (vertex labels, edge labels).

    Odd positions step +2 from u_1 = 0, even positions count down from 2q-1,
    and u_m takes the active marker; edge labels are the absolute differences
    e_1..e_m (e_m closing the cycle back to u_1). Pointwise identical to
    :func:`label_cycle_vertices`.
    """
    q, m = params.q, params.m
    labels = [0] * m
    # 0-based: even indices hold u_1, u_3, ..., odd indices u_2, u_4, ...
    for i in range(2, m, 2):
        labels[i] = labels[i - 2] + 2
    for i in range(1, m - 1, 2):
        labels[i] = 2 * q - i
    labels[m - 1] = markers.active_vertex_label
    edge_values = tuple(abs(labels[i] - labels[(i + 1) % m]) for i in range(m))
    return tuple(labels), edge_values


def path_pass(params: ConstructionParams, markers: Markers) -> tuple[Labeling, tuple[int, ...]]:
    """Label v_1..v_n and the path edges in one sweep; returns (vertex labels, edge labels).

    Edge labels descend by 2 from the active marker; when the descent would
    land on the double-jump value it steps by 4 instead (this fires at most
    once, since the sequence is strictly decreasing). Vertex labels alternate
    v_{j+1} = v_j + edge for odd j and v_j - edge for even j, which keeps odd
    positions small and odd, even positions large and even. Pointwise
    identical to :func:`label_path_vertices`.
    """
    labels = [1]
    edge_values: list[int] = []
    # auxiliary edge value ahead of the first real path edge
    previous = markers.active_vertex_label
    for j in range(1, params.n):
        value = previous - 2
        if value == markers.double_jump_edge_label:
            value -= 2
        labels.append(labels[-1] + value if j % 2 else labels[-1] - value)
        edge_values.append(value)
        previous = value
    return tuple(labels), tuple(edge_values)


def algorithmic_labeling(params: ConstructionParams) -> Labeling:
    """Marker initialization, then the cycle and path passes.

    The two passes share nothing beyond the markers, so they may run in
    either order (or concurrently); the concatenated result equals
    :func:`closed_form_labeling` exactly.
    """
    markers = init_markers(params)
    cycle_labels, _ = cycle_pass(params, markers)
    path_labels, _ = path_pass(params, markers)
    return cycle_labels + path_labels
