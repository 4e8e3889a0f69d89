"""Decides whether a labeling is odd graceful, itemizing every violation.

A labeling of a graph with q edges passes when the vertex labels are distinct
values in [0, 2q-1] and the induced absolute differences over the edges are
exactly the odd values 1, 3, ..., 2q-1, each exactly once. A pass check runs
first: it marks the vertex labels, then the differences as they are
computed, each in a bytearray of length 2q that is released before the next
is made, and keeps no edge-label tuple.
Only a labeling that fails it goes through the itemizing checks, which name
every violation. The checks accept arbitrary topologies, not just cycle-path
unions, so the same code certifies search results.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import MissingVertexLabelError
from .graphs import Labeling, Topology

# Violations name vertices and edges as text, since they exist to be read.
EdgeNames = tuple[str, str]


def _edge_text(edge: EdgeNames) -> str:
    return f"{edge[0]}-{edge[1]}"


class DuplicateVertexLabel(NamedTuple):
    label: int
    vertices: tuple[str, ...]

    def describe(self) -> str:
        holders = ", ".join(self.vertices)
        return f"vertex label {self.label} shared by {holders}"


class VertexLabelOutOfRange(NamedTuple):
    vertex: str
    label: int
    upper: int

    def describe(self) -> str:
        return f"vertex {self.vertex} has label {self.label} outside [0, {self.upper}]"


class EdgeLabelEven(NamedTuple):
    edge: EdgeNames
    label: int

    def describe(self) -> str:
        return f"edge {_edge_text(self.edge)} has even label {self.label}"


class DuplicateEdgeLabel(NamedTuple):
    label: int
    edges: tuple[EdgeNames, ...]

    def describe(self) -> str:
        holders = ", ".join(_edge_text(e) for e in self.edges)
        return f"edge label {self.label} induced by {holders}"


class EdgeLabelSetIncomplete(NamedTuple):
    missing: tuple[int, ...]

    def describe(self) -> str:
        values = ", ".join(str(v) for v in self.missing)
        return f"missing odd edge labels: {values}"


Violation = Union[
    DuplicateVertexLabel,
    VertexLabelOutOfRange,
    EdgeLabelEven,
    DuplicateEdgeLabel,
    EdgeLabelSetIncomplete,
]


class VerificationReport(NamedTuple):
    is_odd_graceful: bool
    violations: tuple[Violation, ...]


def induced_labels(topology: Topology, labeling: Labeling) -> Iterator[int]:
    """Induced |f(a) - f(b)| per edge, in the topology's edge order, each
    computed as it is taken, for a ``labeling`` of exactly one label per
    vertex of ``topology``; a labeling of another length raises on the call."""
    if len(labeling) != topology.p:
        raise MissingVertexLabelError(
            f"labeling has {len(labeling)} labels for {topology.p} vertices"
        )
    return map(abs, map(sub, *topology.ends(labeling)))


def edge_labels(topology: Topology, labeling: Labeling) -> tuple[int, ...]:
    """:func:`induced_labels` as a tuple."""
    return tuple(induced_labels(topology, labeling))


def verify_odd_graceful(topology: Topology, labeling: Labeling) -> VerificationReport:
    """Report whether ``labeling`` is odd graceful, with every violation.

    A pass check runs first: distinct vertex labels in [0, 2q-1] whose
    induced labels are exactly the q odd values 1..2q-1. Only when it fails
    do the itemizing checks run. Their order of findings: vertex labels out
    of range (vertex order), duplicate vertex labels (by first holder), even
    edge labels (edge order), duplicate edge labels (by first holder), then a
    single finding for any odd values absent from the induced edge labels.
    """
    if _passes(labeling, induced_labels(topology, labeling), 2 * topology.q):
        return VerificationReport(is_odd_graceful=True, violations=())
    violations = _violations(topology, labeling, edge_labels(topology, labeling))
    return VerificationReport(is_odd_graceful=not violations, violations=tuple(violations))


def _passes(labeling: Labeling, induced: Iterable[int], size: int) -> bool:
    """Whether the labels are distinct values below ``size`` and the
    ``induced`` labels are the odd values below it, each once."""
    # the range comes first: a negative index would mark from the end
    if labeling and not (0 <= min(labeling) and max(labeling) < size):
        return False
    marks = bytearray(size)
    for label in labeling:
        marks[label] = 1
    if marks.count(1) != len(labeling):
        return False
    del marks  # the label marks go before the difference marks are made
    # each difference of two labels in range is below size as well
    marks = bytearray(size)
    for value in induced:
        marks[value] = 1
    del marks[::2]  # in place: the odd marks are left
    # the size / 2 differences fill the size / 2 odd marks only if each is odd and none repeats
    return 0 not in marks


def _violations(
    topology: Topology, labeling: Labeling, induced: tuple[int, ...]
) -> list[Violation]:
    """Every violation of ``labeling``, whose edge labels are ``induced``, in
    the order ``verify_odd_graceful`` reports."""
    names, edges = topology.names, topology.edges
    upper = 2 * topology.q - 1
    violations: list[Violation] = [
        VertexLabelOutOfRange(vertex=names[i], label=value, upper=upper)
        for i, value in enumerate(labeling)
        if value < 0 or value > upper
    ]

    # dicts keep insertion order, so each group is keyed by its first holder
    holders: dict[int, list[int]] = {}
    for i, value in enumerate(labeling):
        holders.setdefault(value, []).append(i)
    violations.extend(
        DuplicateVertexLabel(label=value, vertices=tuple(names[i] for i in shared))
        for value, shared in holders.items()
        if len(shared) > 1
    )

    def edge_names(e: int) -> EdgeNames:
        a, b = edges[e]
        return names[a], names[b]

    by_value: dict[int, list[int]] = {}
    for e, value in enumerate(induced):
        by_value.setdefault(value, []).append(e)
    violations.extend(
        EdgeLabelEven(edge=edge_names(e), label=value)
        for e, value in enumerate(induced)
        if value % 2 == 0
    )
    violations.extend(
        DuplicateEdgeLabel(label=value, edges=tuple(edge_names(e) for e in shared))
        for value, shared in by_value.items()
        if len(shared) > 1
    )
    missing = tuple(
        value for value in range(1, 2 * topology.q, 2) if value not in by_value
    )
    if missing:
        violations.append(EdgeLabelSetIncomplete(missing=missing))

    return violations
