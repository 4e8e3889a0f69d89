"""Textual graph specs like ``C8+P12`` and edge-list files.

Grammar::

    spec := term ("+" term)*
    term := "C" integer | "P" integer | "@" filepath

Integers are decimal and at least 1. ``+`` is disjoint union: each term's
vertices land in a fresh block, so ``C4+C4`` is two disjoint 4-cycles. An
``@`` term pulls an edge list from a file (one ``a b`` pair of positive
ASCII-decimal indices per line, blank lines and ``#`` comments ignored) and
keeps the file's vertex numbers, shifted past the largest number used by the
terms before it. Constructor-backed commands additionally require exactly one
cycle and one path term; the search command accepts any spec. ``read_text``
reads every input: a file, or standard input when its path is None.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from .errors import (
    CycleTooSmallError,
    DocumentError,
    EmptyGraphError,
    GraphSpecError,
    InputTooLargeError,
    PathTooShortError,
)
from .graphs import GraphTopology, build_free_graph

# 2q-1 already overstates any practical label; cap parses well before overflow
_MAX_DIGITS = 18
# the most edges a spec may have: the search oracle's edge bit masks take
# memory quadratic in q, 10 MB at q = 8,000 and so about 160 GB at q = 10^6
MAX_SPEC_EDGES = 10**4
# the grammar's term; [0-9] takes ASCII digits only, and a path ends at "+"
_TERM = re.compile(r"([CP])([0-9]*)|@([^+]*)")


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
        term = _TERM.match(text, pos)
        if term is None:
            if pos == len(text):
                raise GraphSpecError("expected a term", pos)
            raise GraphSpecError(f"unexpected character {text[pos]!r}", pos)
        kind, digits, path = term.groups()
        if kind is None:
            if not path:
                raise GraphSpecError("expected a file path after '@'", pos + 1)
            terms.append(("@", path))
        elif not digits:
            raise GraphSpecError(f"expected an integer after {kind!r}", pos + 1)
        elif len(digits) > _MAX_DIGITS:
            raise GraphSpecError("integer too large", pos + 1)
        elif int(digits) < 1:
            raise GraphSpecError("integer must be at least 1", pos + 1)
        else:
            terms.append((kind, int(digits)))
        pos = term.end()
        if pos == len(text):
            return tuple(terms)
        if text[pos] != "+":
            raise GraphSpecError(f"unexpected character {text[pos]!r}", pos)
        pos += 1


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


def read_text(path: str | None) -> str:
    """The text of an input file, or of standard input when ``path`` is None;
    input that cannot be read is a parse error."""
    try:
        if path is not None:
            return Path(path).read_text()
        if sys.stdin is None:  # descriptor 0 was closed when the process started
            raise OSError("it is closed")
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "standard input" if path is None else repr(path)
        raise DocumentError(f"cannot read {source}: {exc}") from None


def topology_from_spec(spec: tuple[tuple[str, int | str], ...]) -> GraphTopology:
    """Materialize a spec as a free-vertex topology, terms joined disjointly.

    Cycle terms need at least 3 vertices and path terms at least 2 (degenerate
    terms have no clean edge-list reading). An ``@`` term keeps the file's
    vertex numbers: vertex k becomes ``offset + k``, where the offset is the
    largest vertex number used by the terms before it. A spec of more than
    ``MAX_SPEC_EDGES`` edges (C_k has k, P_k has k - 1, a file its pairs) is
    refused before any edge is built.
    """
    terms: list[tuple[str, int | list[tuple[int, int]]]] = []
    count = 0
    for kind, value in spec:
        if kind == "C":
            if value < 3:
                raise CycleTooSmallError(
                    f"cycle term C{value} is degenerate; need at least C3"
                )
            count += value
        elif kind == "P":
            if value < 2:
                raise PathTooShortError(
                    f"path term P{value} contributes no edges; need at least P2",
                    required=2,
                )
            count += value - 1
        else:
            pairs = parse_edge_list(read_text(value))
            if not pairs:
                raise EmptyGraphError(f"edge list {value!r} has no edges")
            value = pairs
            count += len(pairs)
        terms.append((kind, value))
    if count > MAX_SPEC_EDGES:
        raise InputTooLargeError(
            f"input too large: the spec has {count} edges, over the limit of {MAX_SPEC_EDGES}"
        )

    edges: list[tuple[int, int]] = []
    offset = 0
    for kind, value in terms:
        if kind == "C":
            edges.extend((offset + i, offset + i + 1) for i in range(1, value))
            edges.append((offset + value, offset + 1))
            offset += value
        elif kind == "P":
            edges.extend((offset + j, offset + j + 1) for j in range(1, value))
            offset += value
        else:
            edges.extend((offset + a, offset + b) for a, b in value)
            offset += max(max(pair) for pair in value)
    return build_free_graph(edges)
