"""Decides whether a labeling is odd graceful, itemizing every violation.

A labeling of a graph with q edges passes when the vertex labels are distinct
values in [0, 2q-1] and the induced absolute differences over the edges are
exactly the odd values 1, 3, ..., 2q-1, each exactly once. A pass check of
set and min/max operations over whole lists runs first; only a labeling that
fails it goes through the itemizing checks, which name every violation. The
checks accept arbitrary topologies, not just cycle-path unions, so the same
code certifies search results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import MissingVertexLabelError
from .graphs import GraphTopology, Labeling

# Violations name vertices and edges as text, since they exist to be read.
EdgeNames = tuple[str, str]


def _edge_text(edge: EdgeNames) -> str:
    return f"{edge[0]}-{edge[1]}"


@dataclass(frozen=True)
class DuplicateVertexLabel:
    label: int
    vertices: tuple[str, ...]

    def describe(self) -> str:
        holders = ", ".join(self.vertices)
        return f"vertex label {self.label} shared by {holders}"


@dataclass(frozen=True)
class VertexLabelOutOfRange:
    vertex: str
    label: int
    upper: int

    def describe(self) -> str:
        return f"vertex {self.vertex} has label {self.label} outside [0, {self.upper}]"


@dataclass(frozen=True)
class EdgeLabelEven:
    edge: EdgeNames
    label: int

    def describe(self) -> str:
        return f"edge {_edge_text(self.edge)} has even label {self.label}"


@dataclass(frozen=True)
class DuplicateEdgeLabel:
    label: int
    edges: tuple[EdgeNames, ...]

    def describe(self) -> str:
        holders = ", ".join(_edge_text(e) for e in self.edges)
        return f"edge label {self.label} induced by {holders}"


@dataclass(frozen=True)
class EdgeLabelSetIncomplete:
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


@dataclass(frozen=True)
class VerificationReport:
    is_odd_graceful: bool
    violations: tuple[Violation, ...]
    # the edge labels the checks computed, in edge order, for a writer to reuse
    induced: tuple[int, ...] = field(default=(), compare=False, repr=False)


def _require_total(topology: GraphTopology, labeling: Labeling) -> None:
    if len(labeling) != len(topology.names):
        raise MissingVertexLabelError(
            f"labeling has {len(labeling)} labels for {len(topology.names)} vertices"
        )


def edge_labels(topology: GraphTopology, labeling: Labeling) -> tuple[int, ...]:
    """Induced |f(a) - f(b)| per edge, in the topology's edge order."""
    _require_total(topology, labeling)
    return tuple(abs(labeling[a] - labeling[b]) for a, b in topology.edges)


def verify_odd_graceful(topology: GraphTopology, labeling: Labeling) -> VerificationReport:
    """Report whether ``labeling`` is odd graceful, with every violation.

    A pass check runs first: distinct vertex labels in [0, 2q-1] whose
    induced labels are exactly the q odd values 1..2q-1. Only when it fails
    do the itemizing checks run. Their order of findings: vertex labels out
    of range (vertex order), duplicate vertex labels (by first holder), even
    edge labels (edge order), duplicate edge labels (by first holder), then a
    single finding for any odd values absent from the induced edge labels.
    """
    induced = edge_labels(topology, labeling)
    upper = 2 * topology.q - 1
    if (
        len(labeling)
        and 0 <= min(labeling)
        and max(labeling) <= upper
        and len(set(labeling)) == len(labeling)
        and set(induced) == set(range(1, upper + 1, 2))
    ):
        return VerificationReport(True, (), induced)
    violations = _violations(topology, labeling, induced)
    return VerificationReport(not violations, tuple(violations), induced)


def _violations(
    topology: GraphTopology, labeling: Labeling, induced: tuple[int, ...]
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
