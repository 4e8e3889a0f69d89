"""Textual graph specs like ``C8+P12`` and edge-list files.

Grammar::

    spec := term ("+" term)*
    term := "C" integer | "P" integer | "@" filepath

Integers are decimal and at least 1. ``+`` is disjoint union: each term's
vertices land in a fresh block, so ``C4+C4`` is two disjoint 4-cycles. An
``@`` term pulls an edge list from a file (one ``a b`` pair of positive
ASCII-decimal indices per line, blank lines and ``#`` comments ignored).
Constructor-backed commands additionally require exactly one cycle and one
path term; the search command accepts any spec.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .errors import (
    CycleTooSmallError,
    DocumentError,
    EmptyGraphError,
    GraphSpecError,
    PathTooShortError,
)
from .graphs import GraphTopology, build_free_graph

# 2q-1 already overstates any practical label; cap parses well before overflow
_MAX_DIGITS = 18
_DIGITS = "0123456789"


def union_form(spec: tuple[tuple[str, int | str], ...]) -> tuple[int, int] | None:
    """(m, n) when the spec is exactly one cycle term plus one path term."""
    if sorted(kind for kind, _ in spec) != ["C", "P"]:
        return None
    sizes = dict(spec)
    return sizes["C"], sizes["P"]


def parse_graph_spec(text: str) -> tuple[tuple[str, int | str], ...]:
    """Parse a spec string into its ``(kind, value)`` terms.

    The kind is the grammar's own character: ``("C", 8)``, ``("P", 12)`` or
    ``("@", "graph.txt")``. Syntax errors carry the byte offset of the culprit.
    """
    if not text:
        raise GraphSpecError("empty spec", 0)
    terms: list[tuple[str, int | str]] = []
    pos = 0
    while True:
        if pos >= len(text):
            raise GraphSpecError("expected a term", pos)
        head = text[pos]
        if head in ("C", "P"):
            start = pos + 1
            end = start
            while end < len(text) and text[end] in _DIGITS:
                end += 1
            digits = text[start:end]
            if not digits:
                raise GraphSpecError(f"expected an integer after {head!r}", start)
            if len(digits) > _MAX_DIGITS:
                raise GraphSpecError("integer too large", start)
            value = int(digits)
            if value < 1:
                raise GraphSpecError("integer must be at least 1", start)
            terms.append((head, value))
            pos = end
        elif head == "@":
            start = pos + 1
            end = start
            while end < len(text) and text[end] != "+":
                end += 1
            path = text[start:end]
            if not path:
                raise GraphSpecError("expected a file path after '@'", start)
            terms.append((head, path))
            pos = end
        else:
            raise GraphSpecError(f"unexpected character {head!r}", pos)
        if pos == len(text):
            break
        if text[pos] != "+":
            raise GraphSpecError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
    return tuple(terms)


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Parse edge-list text: one ``a b`` pair per line."""
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DocumentError(f"line {lineno}: expected two vertex indices, got {raw!r}")
        # ASCII decimal digits only: int() would also take "1_0", "+3" and "٣"
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise DocumentError(f"line {lineno}: vertex indices must be integers")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            # the interpreter's limit on the digits of an int (4,300 by default)
            raise DocumentError(f"line {lineno}: integer too large") from None
        if a < 1 or b < 1:
            raise DocumentError(f"line {lineno}: vertex indices must be positive")
        edges.append((a, b))
    return edges


def _read_text(path: str) -> str:
    return Path(path).read_text()


def topology_from_spec(
    spec: tuple[tuple[str, int | str], ...], read_file: Callable[[str], str] = _read_text
) -> GraphTopology:
    """Materialize a spec as a free-vertex topology, terms joined disjointly.

    Cycle terms need at least 3 vertices and path terms at least 2 (degenerate
    terms have no clean edge-list reading); an ``@`` term contributes its
    distinct indices, remapped in ascending order, as a fresh vertex block.
    """
    edges: list[tuple[int, int]] = []
    offset = 0
    for kind, value in spec:
        if kind == "C":
            if value < 3:
                raise CycleTooSmallError(
                    f"cycle term C{value} is degenerate; need at least C3"
                )
            edges.extend((offset + i, offset + i + 1) for i in range(1, value))
            edges.append((offset + value, offset + 1))
            offset += value
        elif kind == "P":
            if value < 2:
                raise PathTooShortError(
                    f"path term P{value} contributes no edges; need at least P2",
                    required=2,
                )
            edges.extend((offset + j, offset + j + 1) for j in range(1, value))
            offset += value
        else:
            pairs = parse_edge_list(read_file(value))
            if not pairs:
                raise EmptyGraphError(f"edge list {value!r} has no edges")
            indices = sorted({index for pair in pairs for index in pair})
            remap = {local: offset + rank for rank, local in enumerate(indices, start=1)}
            edges.extend((remap[a], remap[b]) for a, b in pairs)
            offset += len(indices)
    return build_free_graph(edges)
