"""Serialization: JSON labeling documents (round-trippable), DOT, and CSV.

The JSON document is the interchange format: ``generate`` writes it and
``verify`` reads it back. Vertices appear in topology order (u_1..u_m then
v_1..v_n), edges likewise (cycle edges then path edges). Stored edge labels
are derived data; verification always recomputes them from vertex labels, so
a document with tampered vertex labels is judged on substance.

``document_to_json`` renders a ``labeling_document`` (ints and vertex-id
strings) to the bytes of ``json.dumps(document, indent=2)`` plus a newline:
two-space indent, one field per line, non-ASCII escaped.
``parse_labeling_document`` accepts any JSON layout and returns
``build_union_graph(m, n)`` for a union document. A union document that
lists that topology entry for entry, with each edge's endpoints in its
order, is accepted from one list per field. Any other document goes
through the per-entry checks, which report its first failed check. Output
is byte-identical across runs for identical inputs.
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


# json.dumps(document, indent=2), with a slot for each field value
_HEADER = '{\n  "graph": {\n    "m": %d,\n    "n": %d\n  },\n  "q": %d,\n  "vertices": '
_VERTEX = '    {\n      "id": %s,\n      "label": %d\n    }'
_EDGE = '    {\n      "from": %s,\n      "to": %s,\n      "label": %d\n    }'
_encode_str = json.encoder.encode_basestring_ascii


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def document_to_json(document: dict) -> str:
    """The bytes of ``json.dumps(document, indent=2)`` plus a newline.

    ``document`` is a :func:`labeling_document`: its keys and nesting, ints
    in the size and label fields and strings in the vertex-id fields. Ints
    are written with ``%d`` and strings with ``encode_basestring_ascii``,
    the C function ``json.dumps`` uses, into fixed templates, because
    ``json.dumps`` with an indent runs its pure-Python encoder on every
    entry.
    """
    graph = document["graph"]
    header = _HEADER % (graph["m"], graph["n"], document["q"])
    vertices = [_VERTEX % (_encode_str(v["id"]), v["label"]) for v in document["vertices"]]
    edges = [
        _EDGE % (_encode_str(e["from"]), _encode_str(e["to"]), e["label"])
        for e in document["edges"]
    ]
    return header + _json_list(vertices) + ',\n  "edges": ' + _json_list(edges) + "\n}\n"


def _want(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise DocumentError(f"{context}: missing {key!r}")
    return mapping[key]


def _want_int(value, context: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context}: expected an integer, got {value!r}")
    return value


def _canonical_union(raw: dict, m: int, n: int) -> tuple[GraphTopology, Labeling] | None:
    """The parse, from one list per field, of a document that lists
    ``build_union_graph(m, n)`` entry for entry in its order; else None."""
    try:
        vertices, edges, q = raw["vertices"], raw["edges"], raw["q"]
        if len(vertices) != m + n or type(q) is not int or q != len(edges):
            return None
        ids = [entry["id"] for entry in vertices]
        labels = [entry["label"] for entry in vertices]
        sources = [entry["from"] for entry in edges]
        targets = [entry["to"] for entry in edges]
    except (KeyError, TypeError):
        return None
    try:
        union = build_union_graph(m, n)
    except OddGracefulError:
        return None
    names = union.names
    if (
        ids != list(names)
        or set(map(type, labels)) != {int}
        or min(labels) < 0
        or sources != [names[a] for a, _ in union.edges]
        or targets != [names[b] for _, b in union.edges]
    ):
        return None
    return union, tuple(labels)


def parse_labeling_document(text: str) -> tuple[GraphTopology, Labeling]:
    """Parse a JSON labeling document back into a topology and labeling.

    Vertices keep their listed order. A document that names a union graph
    (``graph.m`` or ``graph.n`` non-zero) must list exactly the topology of
    ``C_m + P_n``, and that topology is the one returned.
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
    parsed = (m or n) and _canonical_union(raw, m, n)
    if parsed:
        return parsed

    # json.loads makes every object a dict, every string a str, and every
    # number without a fraction an int (true and false are bools, not ints)
    raw_vertices = _want(raw, "vertices", "document")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise DocumentError("document needs a non-empty 'vertices' list")
    position: dict[str, int] = {}
    labels: list[int] = []
    for index, entry in enumerate(raw_vertices):
        if type(entry) is not dict or "id" not in entry:
            raise DocumentError(f"vertices[{index}]: missing 'id'")
        name = entry["id"]
        if type(name) is not str:
            raise DocumentError(f"vertices[{index}]: expected a vertex id string, got {name!r}")
        if not _VERTEX_ID.fullmatch(name):
            raise DocumentError(f"vertices[{index}]: malformed vertex id {name!r}")
        if "label" not in entry:
            raise DocumentError(f"vertices[{index}]: missing 'label'")
        label = entry["label"]
        if type(label) is not int:
            raise DocumentError(f"vertices[{index}].label: expected an integer, got {label!r}")
        if label < 0:
            raise DocumentError(f"vertices[{index}]: label must be non-negative, got {label}")
        if name in position:
            raise DocumentError(f"vertices[{index}]: duplicate vertex id {name}")
        position[name] = index
        labels.append(label)

    raw_edges = _want(raw, "edges", "document")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise DocumentError("document needs a non-empty 'edges' list")
    edges: dict[tuple[int, int], None] = {}
    for index, entry in enumerate(raw_edges):
        if type(entry) is not dict or "from" not in entry:
            raise DocumentError(f"edges[{index}]: missing 'from'")
        a = entry["from"]
        if type(a) is not str:
            raise DocumentError(f"edges[{index}]: expected a vertex id string, got {a!r}")
        if "to" not in entry:
            raise DocumentError(f"edges[{index}]: missing 'to'")
        b = entry["to"]
        if type(b) is not str:
            raise DocumentError(f"edges[{index}]: expected a vertex id string, got {b!r}")
        if a == b:
            raise DocumentError(f"edges[{index}]: self-loop at {a}")
        i, j = position.get(a), position.get(b)
        if i is None or j is None:
            raise DocumentError(f"edges[{index}]: edge references an unknown vertex")
        key = (i, j) if i < j else (j, i)
        if key in edges:
            raise DocumentError(f"edges[{index}]: duplicate edge {a}-{b}")
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
