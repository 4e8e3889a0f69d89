"""Two independent routes to an odd graceful labeling of C_m + P_n.

Throughout, q = m + n - 1 is the edge count and k = m / 2. The cycle
alternates: odd cycle positions take the small even values 0, 2, 4, ...,
even cycle positions take the largest odd values 2q-1, 2q-3, ..., and the
last cycle vertex u_m takes the exceptional value 2q - 2m + 3. That exception
frees the odd values below 2q - 2m + 3 for the path edges, except one: the
value 2q - 3m + 5 is already realized inside the cycle (on the edge
u_{m-1}u_m). The path is one zigzag between small odd and large even labels,
whose edge labels fall by 2 from 2q - 2m + 1, plus one step: from v_k on,
every vertex of k's parity moves 2 further along its family, so the edge
labels jump over 2q - 3m + 5.

``closed_form_labeling`` evaluates per-index formulas; ``algorithmic_labeling``
walks the cycle and the path as two zigzags over falling runs of odd
differences, seeded by the two markers above. Both are pure functions of
the params and must agree pointwise -- the test suite enforces that.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, cycle, islice
from operator import mul
from typing import NamedTuple

from .graphs import Labeling, check_union_size


class ConstructionParams(NamedTuple):
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
    """Smallest n from which the construction works for every n at cycle length m.

    The even path labels descend toward the even cycle labels; requiring the
    smallest of the former to clear m - 2 (the largest of the latter) gives
    n >= m - 1 when k is even and n >= m - 3 when k is odd. Below the bound,
    C4+P1 and C6+P1 still verify. Every other n = 1 cell fails in the cycle
    alone: the edge u_{m-1}u_m repeats label m - 5. For n >= 2 an even path
    label collides with an even cycle label. The graph may still be odd
    graceful below the bound.
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


class Markers(NamedTuple):
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
    labels = [i - 1 if i % 2 else 2 * q + 1 - i for i in range(1, m)]
    labels.append(2 * q - 2 * m + 3)
    return tuple(labels)


def label_path_vertices(params: ConstructionParams) -> Labeling:
    """Closed-form labels for v_1..v_n: one zigzag plus one step.

    The zigzag gives odd positions i and even positions 2q - 2m + 4 - i, so
    its edge labels fall by 2 from 2q - 2m + 1 to 3. The step: from v_k on,
    every vertex of k's parity takes the zigzag label two places further
    along (2 more at an odd position, 2 less at an even one). Each edge from
    v_{k-1} on then has one end moved 2 toward the other, so the edge labels
    skip 2q - 3m + 5, the label of the cycle edge u_{m-1}u_m, and end at 1.
    """
    q, m, n, k = params.q, params.m, params.n, params.k
    top = 2 * q - 2 * m + 4
    # the zigzag for v_1..v_{n+2}; the last two feed the step
    zigzag = [0] * (n + 2)
    zigzag[::2] = range(1, n + 3, 2)
    zigzag[1::2] = range(top - 2, top - n - 3, -2)
    zigzag[k - 1 : n : 2] = zigzag[k + 1 :: 2]
    return tuple(zigzag[:n])


def closed_form_labeling(params: ConstructionParams) -> Labeling:
    """Full labeling by direct formula evaluation (cycle labels, then path labels)."""
    return label_cycle_vertices(params) + label_path_vertices(params)


def _zigzag(start: int, differences: Iterable[int]) -> Labeling:
    """Labels from ``start``, up by the first difference, down by the next, and so on."""
    return tuple(accumulate(map(mul, differences, cycle((1, -1))), initial=start))


def cycle_pass(params: ConstructionParams, markers: Markers) -> tuple[Labeling, tuple[int, ...]]:
    """Label u_1..u_m by walking the cycle once; returns (vertex labels, edge labels).

    u_1..u_{m-1} zigzag from 0 over the falling run of odd differences from
    2q-1 down to just above the active marker, and u_m takes the active
    marker. Edge labels are the absolute differences e_1..e_m (e_m closing
    the cycle back to u_1); for validated params e_{m-1} is the double-jump
    value. Pointwise identical to :func:`label_cycle_vertices`.
    """
    m, active = params.m, markers.active_vertex_label
    labels = _zigzag(0, range(2 * params.q - 1, active, -2)) + (active,)
    edge_values = tuple(abs(labels[i] - labels[(i + 1) % m]) for i in range(m))
    return labels, edge_values


def path_pass(params: ConstructionParams, markers: Markers) -> tuple[Labeling, tuple[int, ...]]:
    """Label v_1..v_n and the path edges in one sweep; returns (vertex labels, edge labels).

    The edge labels are the falling run of odd values below the active
    marker, without the double-jump value, which the cycle already uses; the
    first n - 1 of them label the path. The vertex labels zigzag from 1 over
    those edge labels, which keeps odd positions small and odd, even
    positions large and even. Pointwise identical to
    :func:`label_path_vertices`.
    """
    edge_values = tuple(_path_run(params, markers))
    return _zigzag(1, edge_values), edge_values


def _path_run(params: ConstructionParams, markers: Markers) -> Iterator[int]:
    """The path's edge labels of :func:`path_pass`, each computed as it is taken."""
    jump = markers.double_jump_edge_label
    run = range(markers.active_vertex_label - 2, 0, -2)
    return islice((value for value in run if value != jump), params.n - 1)


def algorithmic_labeling(params: ConstructionParams) -> Labeling:
    """Marker initialization, then the cycle and path passes.

    The two passes share nothing beyond the markers, so they may run in
    either order (or concurrently); the concatenated result equals
    :func:`closed_form_labeling` exactly. The path's vertex labels are those
    of :func:`path_pass`, zigzagged over its edge labels as they are
    computed, so no tuple of them is kept beside the labeling.
    """
    markers = init_markers(params)
    cycle_labels, _ = cycle_pass(params, markers)
    return cycle_labels + _zigzag(1, _path_run(params, markers))


# the construction routes by their `generate --method` names
METHODS = {"closed": closed_form_labeling, "algorithmic": algorithmic_labeling}
