"""Serialization: JSON labeling documents (round-trippable), DOT, and CSV.

The JSON document is the interchange format: ``generate`` writes it and
``verify`` reads it back. Vertices appear in topology order (u_1..u_m then
v_1..v_n), edges likewise (cycle edges then path edges). Stored edge labels
are derived data; verification always recomputes them from vertex labels, so
a document with tampered vertex labels is judged on substance.

``document_pieces`` writes a labeled topology's document, the bytes of
``json.dumps(document, indent=2)`` plus a newline (two-space indent, one
field per line, non-ASCII escaped), in pieces of at most a few thousand list
entries; ``generate`` writes them one at a time, and ``document_to_json`` is
their join. ``labeling_document`` is the document's parse.
``parse_labeling_document`` accepts any JSON layout and returns
``build_union_graph(m, n)`` for a union document. It reads the bytes
``generate`` writes by writing them again, comparing each piece with the
text in its place, so no second copy of the document is made; any other
text goes through the per-entry checks, which report its first failed check.
Output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from typing import Iterable, Iterator

from .errors import DocumentError, OddGracefulError
from .graphs import GraphTopology, Labeling, build_union_graph
from .verification import VerificationReport, edge_labels

_VERTEX_ID = re.compile(r"[uvw][1-9][0-9]*")


# json.dumps(document, indent=2), with a slot for each field value
_HEADER = '{\n  "graph": {\n    "m": %d,\n    "n": %d\n  },\n  "q": %d,\n  "vertices": '
_VERTEX = '    {\n      "id": %s,\n      "label": %d\n    }'
_EDGE = '    {\n      "from": %s,\n      "to": %s,\n      "label": %d\n    }'
_encode_str = json.encoder.encode_basestring_ascii
_PIECE = 4096  # list entries per piece of the document


def _json_list(template: str, rows: Iterable[tuple]) -> Iterator[str]:
    """An indented JSON list of ``template % row``, in pieces of at most ``_PIECE`` rows."""
    rows = iter(rows)
    start = "[\n"
    while piece := [template % row for row in islice(rows, _PIECE)]:
        yield start + ",\n".join(piece)
        start = ",\n"
    yield "[]" if start == "[\n" else "\n  ]"


def document_pieces(
    topology: GraphTopology, labeling: Labeling, induced: tuple[int, ...] | None = None
) -> Iterator[str]:
    """:func:`document_to_json` in pieces of at most ``_PIECE`` list entries.
    The name and edge-label tables are built before the first piece;
    ``induced`` is the edge labels, when they are already known."""
    names = [_encode_str(name) for name in topology.names]
    if induced is None:
        induced = edge_labels(topology, labeling)
    yield _HEADER % (topology.m, topology.n, topology.q)
    yield from _json_list(_VERTEX, zip(names, labeling))
    yield ',\n  "edges": '
    edges = ((names[a], names[b], value) for (a, b), value in zip(topology.edges, induced))
    yield from _json_list(_EDGE, edges)
    yield "\n}\n"


def document_to_json(topology: GraphTopology, labeling: Labeling) -> str:
    """The labeled topology's JSON document, with a trailing newline.

    The bytes are those of ``json.dumps(document, indent=2)`` for the
    document with the sizes, q, one ``{id, label}`` object per vertex and
    one ``{from, to, label}`` object per edge. Ints are written with ``%d``
    and names with ``encode_basestring_ascii``, the C function
    ``json.dumps`` uses, into fixed templates, because ``json.dumps`` with
    an indent runs its pure-Python encoder on every entry. The text is the
    join of :func:`document_pieces`, which ``generate`` writes one at a time.
    """
    return "".join(document_pieces(topology, labeling))


def labeling_document(topology: GraphTopology, labeling: Labeling) -> dict:
    """The parse of :func:`document_to_json`: the document ``generate`` writes."""
    return json.loads(document_to_json(topology, labeling))


def _want(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise DocumentError(f"{context}: missing {key!r}")
    return mapping[key]


def _want_int(value, context: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context}: expected an integer, got {value!r}")
    return value


def _want_id(value, context: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{context}: expected a vertex id string, got {value!r}")
    return value


def _want_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise DocumentError(f"document needs a non-empty {key!r} list")
    return value


# what document_to_json writes for a union's sizes, and each vertex's label line
_WRITTEN_SIZES = re.compile(
    r'\{\n  "graph": \{\n    "m": ([1-9][0-9]*),\n    "n": ([1-9][0-9]*)\n'
)
_WRITTEN_LABEL = re.compile(r'\n      "label": ([0-9]+)\n')


def _written_union(text: str) -> tuple[GraphTopology, Labeling] | None:
    """The parse of ``text`` if it is byte for byte what
    ``document_to_json(build_union_graph(m, n), labels)`` writes; else None."""
    sizes = _WRITTEN_SIZES.match(text)
    edges_at = text.find('\n  "edges": ')
    if sizes is None or edges_at < 0:
        return None
    try:
        # int() refuses a number past the interpreter's digit limit
        m, n = map(int, sizes.groups())
        labels = tuple(map(int, _WRITTEN_LABEL.findall(text, sizes.end(), edges_at)))
        # the label count bounds m + n by the size of the text before the build
        union = len(labels) == m + n and build_union_graph(m, n)
    except (ValueError, OddGracefulError):
        return None
    if not union:
        return None
    # piece by piece, so the document is never written whole a second time
    at = 0
    for piece in document_pieces(union, labels):
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return (union, labels) if at == len(text) else None


def parse_labeling_document(text: str) -> tuple[GraphTopology, Labeling]:
    """Parse a JSON labeling document back into a topology and labeling.

    Vertices keep their listed order. A document that names a union graph
    (``graph.m`` or ``graph.n`` non-zero) must list exactly the topology of
    ``C_m + P_n``, and that topology is the one returned. The bytes that
    ``generate`` writes are read by writing them again; any other text is
    parsed as JSON and each entry is checked in turn.
    """
    written = _written_union(text)
    if written is not None:
        return written
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:
        # the interpreter's limit on the digits of an int (4,300 by default)
        raise DocumentError("invalid JSON: integer too large") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")

    graph = _want(raw, "graph", "document")
    m = _want_int(_want(graph, "m", "graph"), "graph.m")
    n = _want_int(_want(graph, "n", "graph"), "graph.n")
    if m < 0 or n < 0:
        raise DocumentError(f"graph sizes must be non-negative, got m={m}, n={n}")

    position: dict[str, int] = {}
    labels: list[int] = []
    for index, entry in enumerate(_want_list(_want(raw, "vertices", "document"), "vertices")):
        at = f"vertices[{index}]"
        name = _want_id(_want(entry, "id", at), at)
        if not _VERTEX_ID.fullmatch(name):
            raise DocumentError(f"{at}: malformed vertex id {name!r}")
        label = _want_int(_want(entry, "label", at), f"{at}.label")
        if label < 0:
            raise DocumentError(f"{at}: label must be non-negative, got {label}")
        if name in position:
            raise DocumentError(f"{at}: duplicate vertex id {name}")
        position[name] = index
        labels.append(label)

    edges: dict[tuple[int, int], None] = {}
    for index, entry in enumerate(_want_list(_want(raw, "edges", "document"), "edges")):
        at = f"edges[{index}]"
        a = _want_id(_want(entry, "from", at), at)
        b = _want_id(_want(entry, "to", at), at)
        if a == b:
            raise DocumentError(f"{at}: self-loop at {a}")
        i, j = position.get(a), position.get(b)
        if i is None or j is None:
            raise DocumentError(f"{at}: edge references an unknown vertex")
        key = (i, j) if i < j else (j, i)
        if key in edges:
            raise DocumentError(f"{at}: duplicate edge {a}-{b}")
        edges[key] = None

    q = _want_int(_want(raw, "q", "document"), "q")
    if q != len(edges):
        raise DocumentError(f"document says q={q} but lists {len(edges)} edges")

    names, pairs = tuple(position), tuple(edges)
    if not (m or n):
        return GraphTopology(names=names, edges=pairs, m=0, n=0), tuple(labels)
    try:
        # the size check comes first, so a huge m or n is never built
        union = len(names) == m + n and build_union_graph(m, n)
    except OddGracefulError as exc:
        raise DocumentError(f"graph m={m}, n={n}: {exc}") from None
    if not union or union.names != names or union.edges != pairs:
        raise DocumentError(f"graph m={m}, n={n}: the listed vertices and edges are not C{m}+P{n}")
    return union, tuple(labels)


def to_dot(topology: GraphTopology, labeling: Labeling, induced: tuple | None = None) -> str:
    """Undirected DOT text; node display is ``id:label``, edges carry their label."""
    names = topology.names
    if induced is None:
        induced = edge_labels(topology, labeling)
    lines = ["graph G {"]
    lines.extend(f'  {name} [label="{name}:{label}"];' for name, label in zip(names, labeling))
    lines.extend(
        f"  {names[a]} -- {names[b]} [label={value}];"
        for (a, b), value in zip(topology.edges, induced)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv(topology: GraphTopology, labeling: Labeling, induced: tuple | None = None) -> str:
    """Vertex section then edge section; edges are numbered e1..eq in edge order."""
    names = topology.names
    if induced is None:
        induced = edge_labels(topology, labeling)
    lines = ["vertex,label"]
    lines.extend(f"{name},{label}" for name, label in zip(names, labeling))
    lines.append("edge,from,to,label")
    lines.extend(
        f"e{index},{names[a]},{names[b]},{value}"
        for index, ((a, b), value) in enumerate(zip(topology.edges, induced), start=1)
    )
    return "\n".join(lines) + "\n"


def _plain(value):
    return [_plain(item) for item in value] if isinstance(value, tuple) else value


def violation_to_dict(violation) -> dict:
    """The violation's kind, then its fields in declaration order."""
    fields = {key: _plain(value) for key, value in vars(violation).items()}
    return {"kind": type(violation).__name__, **fields}


def report_to_dict(report: VerificationReport, q: int) -> dict:
    return {
        "is_odd_graceful": report.is_odd_graceful,
        "q": q,
        "violations": [violation_to_dict(v) for v in report.violations],
    }
