"""Serialization: JSON labeling documents (round-trippable), DOT, and CSV.

The JSON document is the interchange format: ``generate`` writes it and
``verify`` reads it back. Vertices appear in topology order (u_1..u_m then
v_1..v_n), edges likewise (cycle edges then path edges). Stored edge labels
are derived data; verification always recomputes them from vertex labels, so
a document with tampered vertex labels is judged on substance.

``document_to_json`` returns the same bytes as ``json.dumps(document,
indent=2)`` plus a newline: two-space indent, one field per line, non-ASCII
escaped. ``parse_labeling_document`` accepts any JSON layout. Output is
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import json
import re

from .errors import DocumentError, OddGracefulError
from .graphs import GraphTopology, Labeling, build_union_graph
from .verification import VerificationReport, edge_labels

_VERTEX_ID = re.compile(r"[uvw][1-9][0-9]*")


def labeling_document(topology: GraphTopology, labeling: Labeling) -> dict:
    """Build the JSON-ready document for a labeled topology."""
    names = topology.names
    induced = edge_labels(topology, labeling)
    return {
        "graph": {"m": topology.m, "n": topology.n},
        "q": topology.q,
        "vertices": [{"id": name, "label": label} for name, label in zip(names, labeling)],
        "edges": [
            {"from": names[a], "to": names[b], "label": value}
            for (a, b), value in zip(topology.edges, induced)
        ],
    }


# json.dumps(document, indent=2), with a %s slot for each field value
_HEADER = '{\n  "graph": {\n    "m": %s,\n    "n": %s\n  },\n  "q": %s,\n  "vertices": '
_VERTEX = '    {\n      "id": %s,\n      "label": %s\n    }'
_EDGE = '    {\n      "from": %s,\n      "to": %s,\n      "label": %s\n    }'
_encode_str = json.encoder.encode_basestring_ascii


def _field(value, depth: int) -> str:
    """A field value as ``json.dumps(..., indent=2)`` writes it at ``depth``."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _vertex_json(entry: dict) -> str:
    name, label = entry["id"], entry["label"]
    if type(name) is str and type(label) is int:
        return _VERTEX % (_encode_str(name), label)
    return _VERTEX % (_field(name, 3), _field(label, 3))


def _edge_json(entry: dict) -> str:
    a, b, label = entry["from"], entry["to"], entry["label"]
    if type(a) is str and type(b) is str and type(label) is int:
        return _EDGE % (_encode_str(a), _encode_str(b), label)
    return _EDGE % (_field(a, 3), _field(b, 3), _field(label, 3))


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def document_to_json(document: dict) -> str:
    """The bytes of ``json.dumps(document, indent=2)`` plus a newline.

    ``document`` has the keys and nesting of a :func:`labeling_document`,
    in that order, and any JSON value may stand in a field. The text is
    filled into fixed templates instead, because ``json.dumps`` with an
    indent runs its pure-Python encoder on every entry.
    """
    graph = document["graph"]
    header = _HEADER % (_field(graph["m"], 2), _field(graph["n"], 2), _field(document["q"], 1))
    vertices = _json_list(list(map(_vertex_json, document["vertices"])))
    edges = _json_list(list(map(_edge_json, document["edges"])))
    return header + vertices + ',\n  "edges": ' + edges + "\n}\n"


def _want(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise DocumentError(f"{context}: missing {key!r}")
    return mapping[key]


def _want_int(value, context: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context}: expected an integer, got {value!r}")
    return value


def _want_str(value, context: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{context}: expected a vertex id string, got {value!r}")
    return value


def _add_vertex(index: int, entry, position: dict[str, int], labels: list[int]) -> None:
    """Record vertex entry ``index``, or raise the error of its first failed check.

    The parse loop tests the common case inline, without building the
    context string, and comes here for every entry that test does not pass.
    """
    context = f"vertices[{index}]"
    name = _want_str(_want(entry, "id", context), context)
    if not _VERTEX_ID.fullmatch(name):
        raise DocumentError(f"{context}: malformed vertex id {name!r}")
    label = _want_int(_want(entry, "label", context), f"{context}.label")
    if label < 0:
        raise DocumentError(f"{context}: label must be non-negative, got {label}")
    if name in position:
        raise DocumentError(f"{context}: duplicate vertex id {name}")
    position[name] = index
    labels.append(label)


def _add_edge(
    index: int, entry, position: dict[str, int], edges: dict[tuple[int, int], None]
) -> None:
    """Record edge entry ``index``, or raise the error of its first failed check."""
    context = f"edges[{index}]"
    a = _want_str(_want(entry, "from", context), context)
    b = _want_str(_want(entry, "to", context), context)
    if a == b:
        raise DocumentError(f"{context}: self-loop at {a}")
    if a not in position or b not in position:
        raise DocumentError(f"{context}: edge references an unknown vertex")
    i, j = sorted((position[a], position[b]))
    if (i, j) in edges:
        raise DocumentError(f"{context}: duplicate edge {a}-{b}")
    edges[i, j] = None


def parse_labeling_document(text: str) -> tuple[GraphTopology, Labeling]:
    """Parse a JSON labeling document back into a topology and labeling.

    Vertices keep their listed order. A document that names a union graph
    (``graph.m`` or ``graph.n`` non-zero) must list exactly the topology of
    ``C_m + P_n``.
    """
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

    raw_vertices = _want(raw, "vertices", "document")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise DocumentError("document needs a non-empty 'vertices' list")
    position: dict[str, int] = {}
    labels: list[int] = []
    for index, entry in enumerate(raw_vertices):
        if type(entry) is dict:
            name, label = entry.get("id"), entry.get("label")
            if (
                type(name) is str
                and type(label) is int
                and label >= 0
                and name not in position
                and _VERTEX_ID.fullmatch(name)
            ):
                position[name] = index
                labels.append(label)
                continue
        _add_vertex(index, entry, position, labels)

    raw_edges = _want(raw, "edges", "document")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise DocumentError("document needs a non-empty 'edges' list")
    edges: dict[tuple[int, int], None] = {}
    for index, entry in enumerate(raw_edges):
        if type(entry) is dict:
            a, b = entry.get("from"), entry.get("to")
            if type(a) is str and type(b) is str and a in position and b in position:
                i, j = position[a], position[b]
                key = (i, j) if i < j else (j, i)
                if i != j and key not in edges:
                    edges[key] = None
                    continue
        _add_edge(index, entry, position, edges)

    q = _want_int(_want(raw, "q", "document"), "q")
    if q != len(edges):
        raise DocumentError(f"document says q={q} but lists {len(edges)} edges")

    topology = GraphTopology(names=tuple(position), edges=tuple(edges), m=m, n=n)
    if m or n:
        try:
            # the size check comes first, so a huge m or n is never built
            matches = len(position) == m + n and topology == build_union_graph(m, n)
        except OddGracefulError as exc:
            raise DocumentError(f"graph m={m}, n={n}: {exc}") from None
        if not matches:
            raise DocumentError(
                f"graph m={m}, n={n}: the listed vertices and edges are not C{m}+P{n}"
            )
    return topology, tuple(labels)


def to_dot(topology: GraphTopology, labeling: Labeling) -> str:
    """Undirected DOT text; node display is ``id:label``, edges carry their label."""
    names = topology.names
    induced = edge_labels(topology, labeling)
    lines = ["graph G {"]
    lines.extend(f'  {name} [label="{name}:{label}"];' for name, label in zip(names, labeling))
    lines.extend(
        f"  {names[a]} -- {names[b]} [label={value}];"
        for (a, b), value in zip(topology.edges, induced)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_csv(topology: GraphTopology, labeling: Labeling) -> str:
    """Vertex section then edge section; edges are numbered e1..eq in edge order."""
    names = topology.names
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
