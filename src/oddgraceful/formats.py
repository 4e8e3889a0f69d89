"""Serialization: JSON labeling documents (round-trippable), DOT, and CSV.

The JSON document is the interchange format: ``generate`` writes it and
``verify`` reads it back. Vertices and edges appear in the topology's
order (for a union, the cycle's and then the path's). Edge labels are
derived data: each writer computes them as it writes with ``induced_labels``,
which refuses a labeling without one label per vertex, and verification
recomputes them, so tampered vertex labels are judged on substance.

``document_pieces`` writes a labeled topology's document, the bytes of
``json.dumps(document, indent=2)`` plus a newline (two-space indent, one
field per line, non-ASCII escaped), in pieces of ``_PIECE`` entries, as
``dot_pieces`` and ``csv_pieces`` write DOT and CSV; ``document_to_json``,
``to_dot`` and ``to_csv`` are their joins, and ``generate`` takes its writer
from ``WRITERS``. Each writer writes a vertex's name as the stem and the
index that the topology's ``name_columns`` gives, and at the edges' ends
``end_names``: a union's names are written from m and n, and a free graph's
are its stored ones, so no writer keeps a name per vertex. ``labeling_document`` is the document's parse.
``parse_labeling_document`` accepts any JSON layout and returns
``build_union_graph(m, n)`` for a union document; ``read_labeling_document``
parses a file. Both read the bytes ``generate`` writes by writing them
again, comparing each piece with the text in its place, so no copy of the
document is made; any other text is read whole and goes through the
per-entry checks, which report its first failed check.
Output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain, count, islice
from typing import Iterable, Iterator, TextIO

from .errors import DocumentError, OddGracefulError
from .graphs import VERTEX_NAME, GraphTopology, Labeling, Topology, build_union_graph
from .graphspec import read_text
from .verification import VerificationReport, induced_labels

# json.dumps(document, indent=2) up to the vertex list, with a slot for each size
_HEADER = '{\n  "graph": {\n    "m": %d,\n    "n": %d\n  },\n  "q": %d,\n  "vertices": '
_encode_str = json.encoder.encode_basestring_ascii
_PIECE = 1024  # list entries, or lines, per piece of a text


def _json_list(entries: Iterable[str]) -> Iterator[str]:
    """An indented JSON list of the written ``entries``, in pieces of at most ``_PIECE``."""
    entries = iter(entries)
    start = "[\n"
    while piece := list(islice(entries, _PIECE)):
        yield start + ",\n".join(piece)
        start = ",\n"
    yield "[]" if start == "[\n" else "\n  ]"


def _escape(name: str) -> str:
    """``name`` as ``json.dumps`` writes it, without its quotes."""
    return _encode_str(name)[1:-1]


def document_pieces(topology: Topology, labeling: Labeling) -> Iterator[str]:
    """:func:`document_to_json` in pieces of at most ``_PIECE`` list entries.
    The labeling's length is checked first, so a labeling of the wrong length
    raises before the first piece."""
    induced = induced_labels(topology, labeling)
    stems, indices = topology.name_columns(_escape)
    yield _HEADER % (topology.m, topology.n, topology.q)
    yield from _json_list(
        f'    {{\n      "id": "{stem}{index}",\n      "label": {label}\n    }}'
        for stem, index, label in zip(stems, indices, labeling)
    )
    yield ',\n  "edges": '
    yield from _json_list(
        f'    {{\n      "from": "{a}{i}",\n      "to": "{b}{j}",\n      "label": {value}\n    }}'
        for a, i, b, j, value in zip(*topology.end_names(_escape), induced)
    )
    yield "\n}\n"


def document_to_json(topology: Topology, labeling: Labeling) -> str:
    """The labeled topology's JSON document, with a trailing newline.

    The bytes are those of ``json.dumps(document, indent=2)`` for the
    document with the sizes, q, one ``{id, label}`` object per vertex and
    one ``{from, to, label}`` object per edge. Ints are written in decimal
    and names with ``encode_basestring_ascii``, the C function
    ``json.dumps`` uses, into fixed f-strings, because ``json.dumps`` with
    an indent runs its pure-Python encoder on every entry. The text is the
    join of :func:`document_pieces`, which ``generate`` writes one at a time.
    """
    return "".join(document_pieces(topology, labeling))


def labeling_document(topology: Topology, labeling: Labeling) -> dict:
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


# a line of document_to_json that ends in a number: before the edge list
# these are m, n, q and each vertex label
_WRITTEN_NUMBER = re.compile(r'": ([0-9]+),?$', re.M)
_READ = 1 << 16  # characters per read of a file in the first pass
_LINE = 1 << 16  # a longer line sends a text to the per-entry walk


class _TextReader:
    """The ``read`` and ``seek`` of a text file over a str, which
    ``io.StringIO`` would copy at four bytes a character."""

    def __init__(self, text: str):
        self.text, self.at = text, 0

    def read(self, size: int) -> str:
        self.at += size
        return self.text[self.at - size:self.at]

    def seek(self, at: int) -> None:
        self.at = at


def _written_numbers(source: TextIO | _TextReader) -> Iterator[Iterator[int]]:
    """The numbers that end the lines ``source`` reads before the edge list,
    m, n, q and the labels if it is ``document_to_json``'s text, one
    iterator for each block read; raises ValueError if the text ends, or a
    line runs past ``_LINE``, before the edge list."""
    rest = ""
    while len(rest) < _LINE and (chunk := source.read(_READ)):
        text = rest + chunk
        # each block of whole lines after the first starts with the newline before it
        cut = max(text.rfind("\n"), 0)
        lines, rest = text[:cut], text[cut:]
        edges = lines.find('\n  "edges": ')
        # int() refuses a number past the digit limit
        yield map(int, _WRITTEN_NUMBER.findall(lines, 0, len(lines) if edges < 0 else edges))
        if edges >= 0:
            return
    raise ValueError("no edge list")


def _written_union(source: TextIO | _TextReader) -> tuple[Topology, Labeling] | None:
    """The parse of the text ``source`` reads if it is byte for byte what
    ``document_to_json(build_union_graph(m, n), labels)`` writes; else None.

    The first pass reads whole lines up to the edge list and takes the sizes
    and the labels from them; its buffers are gone once the labels are
    built. The second reads the text from its start again, a piece at a
    time, comparing each with the piece written in its place.
    """
    numbers = chain.from_iterable(_written_numbers(source))
    try:
        m, n, _ = islice(numbers, 3)
        labels = tuple(numbers)
        # the label count bounds m + n by the size of the text before the build
        union = len(labels) == m + n and build_union_graph(m, n)
    except (ValueError, OddGracefulError):
        return None
    if not union:
        return None
    source.seek(0)
    for piece in document_pieces(union, labels):
        if source.read(len(piece)) != piece:
            return None
    return None if source.read(1) else (union, labels)


def parse_labeling_document(text: str) -> tuple[Topology, Labeling]:
    """Parse a JSON labeling document back into a topology and labeling.

    Vertices keep their listed order. A document that names a union graph
    (``graph.m`` or ``graph.n`` non-zero) must list exactly the topology of
    ``C_m + P_n``, and that topology is the one returned. The bytes that
    ``generate`` writes are read by writing them again; any other text is
    parsed as JSON and each entry is checked in turn.
    """
    return _written_union(_TextReader(text)) or _walked(text)


def read_labeling_document(path: str | None) -> tuple[Topology, Labeling]:
    """:func:`parse_labeling_document` of the file at ``path``, or of standard
    input when it is None. A regular file of ``generate``'s bytes is read a
    piece at a time; any other file is read whole, and so is a pipe, which
    cannot be read twice."""
    if path is None or not os.path.isfile(path):
        return parse_labeling_document(read_text(path))
    try:
        with open(path) as source:
            written = _written_union(source)
    except (OSError, UnicodeDecodeError):
        written = None  # read_text reports it, at its place in the whole file
    return written or _walked(read_text(path))


def _walked(text: str) -> tuple[Topology, Labeling]:
    """The parse of ``text`` by ``json.loads`` and the per-entry checks."""
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
        if not VERTEX_NAME.fullmatch(name):
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
        return GraphTopology(names=names, edges=pairs), tuple(labels)
    try:
        # the size check comes first, so a huge m or n is never built
        union = len(names) == m + n and build_union_graph(m, n)
    except OddGracefulError as exc:
        raise DocumentError(f"graph m={m}, n={n}: {exc}") from None
    if not union or union.names != names or union.edges != pairs:
        raise DocumentError(f"graph m={m}, n={n}: the listed vertices and edges are not C{m}+P{n}")
    return union, tuple(labels)


def _line_pieces(*sections: Iterable[str]) -> Iterator[str]:
    """The sections' lines, each ended by a newline, in pieces of at most ``_PIECE`` lines."""
    lines = chain(*sections)
    while piece := list(islice(lines, _PIECE)):
        yield "\n".join(piece) + "\n"


def dot_pieces(topology: Topology, labeling: Labeling) -> Iterator[str]:
    """:func:`to_dot` in pieces; the labeling's length is checked first, before the names."""
    induced = induced_labels(topology, labeling)
    stems, indices = topology.name_columns()
    yield from _line_pieces(
        ["graph G {"],
        (f'  {stem}{index} [label="{stem}{index}:{label}"];'
         for stem, index, label in zip(stems, indices, labeling)),
        (f"  {a}{i} -- {b}{j} [label={value}];"
         for a, i, b, j, value in zip(*topology.end_names(), induced)),
        ["}"],
    )


def to_dot(topology: Topology, labeling: Labeling) -> str:
    """Undirected DOT text; node display is ``id:label``, edges carry their label."""
    return "".join(dot_pieces(topology, labeling))


def csv_pieces(topology: Topology, labeling: Labeling) -> Iterator[str]:
    """:func:`to_csv` in pieces; the labeling's length is checked first, before the names."""
    induced = induced_labels(topology, labeling)
    stems, indices = topology.name_columns()
    yield from _line_pieces(
        ["vertex,label"],
        (f"{stem}{index},{label}" for stem, index, label in zip(stems, indices, labeling)),
        ["edge,from,to,label"],
        (f"e{edge},{a}{i},{b}{j},{value}"
         for edge, a, i, b, j, value
         in zip(count(1), *topology.end_names(), induced)),
    )


def to_csv(topology: Topology, labeling: Labeling) -> str:
    """Vertex section then edge section; edges are numbered e1..eq in edge order."""
    return "".join(csv_pieces(topology, labeling))


WRITERS = {"json": document_pieces, "dot": dot_pieces, "csv": csv_pieces}  # by --format name


def violation_to_dict(violation) -> dict:
    """The violation's kind, then its fields in declaration order."""
    return {"kind": type(violation).__name__, **vars(violation)}


def report_to_dict(report: VerificationReport, q: int) -> dict:
    return {
        "is_odd_graceful": report.is_odd_graceful,
        "q": q,
        "violations": [violation_to_dict(v) for v in report.violations],
    }
