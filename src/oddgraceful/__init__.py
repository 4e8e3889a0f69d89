"""Odd graceful labelings of cycle-path unions: construct, verify, search.

An odd graceful labeling of a graph with q edges injects the vertices into
{0, ..., 2q-1} so that the absolute differences across the edges hit every
odd value 1, 3, ..., 2q-1 exactly once. This package builds such labelings
for the disjoint union of an even cycle C_m and a path P_n by two independent
routes, checks arbitrary labelings against the definition, and exhaustively
searches small graphs for certificates or nonexistence proofs.

A labeling is a tuple of ints in the topology's vertex order (u1..um, then
v1..vn). Everything else lives in the submodules.
"""

from .construction import (
    ConstructionParams,
    algorithmic_labeling,
    closed_form_labeling,
    validate_params,
)
from .errors import (
    CycleTooSmallError,
    DocumentError,
    EmptyGraphError,
    GraphSpecError,
    MissingVertexLabelError,
    OddCycleError,
    OddGracefulError,
    PathTooShortError,
    SelfLoopError,
)
from .graphs import GraphTopology, Labeling, build_union_graph
from .search import SearchBudget, SearchOutcome, SearchStatus, exhaustive_search
from .verification import VerificationReport, verify_odd_graceful

__version__ = "0.1.0"

__all__ = [
    "ConstructionParams",
    "CycleTooSmallError",
    "DocumentError",
    "EmptyGraphError",
    "GraphSpecError",
    "GraphTopology",
    "Labeling",
    "MissingVertexLabelError",
    "OddCycleError",
    "OddGracefulError",
    "PathTooShortError",
    "SearchBudget",
    "SearchOutcome",
    "SearchStatus",
    "SelfLoopError",
    "VerificationReport",
    "algorithmic_labeling",
    "build_union_graph",
    "closed_form_labeling",
    "exhaustive_search",
    "validate_params",
    "verify_odd_graceful",
]
