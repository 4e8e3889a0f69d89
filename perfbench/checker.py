"""Independent checker for the outputs of ``oddgraceful``.

This module imports nothing from ``oddgraceful``: it re-derives every fact it
checks from the definition of an odd graceful labeling and from the graph
spec alone, so a fault in the program cannot hide in shared code.

It checks four things:

1. the topology of ``C_m + P_n`` derived from (m, n) (vertices ``u1..um``,
   ``v1..vn``; cycle edges ``u_i u_i+1`` and ``u_1 u_m``; path edges
   ``v_j v_j+1``), or of a search spec (free vertices ``w1..``, terms joined
   disjointly in order);
2. distinct vertex labels in [0, 2q-1];
3. edge differences that are exactly {1, 3, ..., 2q-1};
4. the same labels in JSON, CSV and DOT, and byte-identical output from the
   two construction methods for the same spec.

For search verdicts it holds its own evidence: a graph with an odd cycle is
not bipartite and so never odd graceful (every edge difference is odd, so
label parity 2-colours the graph); a path has the known labeling
0, 2q-1, 2, 2q-3, ...; every other graph that must be found has a stored
certificate in ``certificates.json``, checked here before it is trusted.

Run ``python3 perfbench/checker.py --self-test`` to see it accept valid
labelings and reject each single altered label. ``--serve`` reads batches of
jobs as JSON lines on stdin and answers each with one JSON line of verdicts;
the benchmark runs it in its own process so that its memory stays out of
the measured process.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

CERTIFICATES = Path(__file__).resolve().parent / "certificates.json"

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Rejected(Exception):
    """The output breaks one of the checked properties."""


# --- topology ---------------------------------------------------------------


def union_graph(m: int, n: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Vertices and edges of C_m + P_n in the program's documented naming."""
    cycle = [f"u{i}" for i in range(1, m + 1)]
    path = [f"v{j}" for j in range(1, n + 1)]
    edges = [(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
    edges += [(path[j], path[j + 1]) for j in range(n - 1)]
    return cycle + path, edges


def spec_terms(spec: str) -> list[tuple[str, int]]:
    terms = []
    for term in spec.split("+"):
        match = re.fullmatch(r"([CP])([1-9][0-9]*)", term)
        if match is None:
            raise ValueError(f"checker handles only C<k>/P<k> terms, got {term!r}")
        terms.append((match.group(1), int(match.group(2))))
    return terms


def spec_graph(spec: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Free-vertex graph of a search spec: each term takes the next index block."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for kind, size in spec_terms(spec):
        block = [f"w{len(vertices) + i}" for i in range(1, size + 1)]
        edges += [(block[i], block[i + 1]) for i in range(size - 1)]
        if kind == "C":
            edges.append((block[-1], block[0]))
        vertices += block
    return vertices, edges


def is_bipartite(vertices: list[str], edges: list[tuple[str, str]]) -> bool:
    neighbours: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour: dict[str, int] = {}
    for start in vertices:
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in neighbours[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def path_labeling(n: int) -> list[int]:
    """Known odd graceful labeling of P_n: 0, 2q-1, 2, 2q-3, ... (q = n - 1)."""
    q = n - 1
    return [j - 1 if j % 2 else 2 * q - (j - 1) for j in range(1, n + 1)]


# --- the definition -----------------------------------------------------------


def graceful_problems(
    labels: dict[str, int], edges: list[tuple[str, str]]
) -> list[str]:
    """Every way the labeling fails the odd graceful definition ([] if none)."""
    q = len(edges)
    top = 2 * q - 1
    problems = []
    values = list(labels.values())
    outside = [v for v in values if not 0 <= v <= top]
    if outside:
        problems.append(f"{len(outside)} labels outside [0, {top}]")
    if len(set(values)) != len(values):
        problems.append(f"{len(values) - len(set(values))} repeated vertex labels")
    differences = sorted(abs(labels[a] - labels[b]) for a, b in edges)
    if differences != list(range(1, 2 * q, 2)):
        problems.append("edge differences are not exactly {1, 3, ..., 2q-1}")
    return problems


def require_topology(
    expected: tuple[list[str], list[tuple[str, str]]],
    labels: dict[str, int],
    edges: list[tuple[str, str]],
) -> None:
    want_vertices, want_edges = expected
    if sorted(labels) != sorted(want_vertices):
        raise Rejected("vertex set differs from the spec's topology")
    got = sorted(tuple(sorted(e)) for e in edges)
    want = sorted(tuple(sorted(e)) for e in want_edges)
    if got != want:
        raise Rejected("edge set differs from the spec's topology")


# --- output formats ---------------------------------------------------------------


def _int(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise Rejected(f"not an integer: {text!r}")
    return int(text)


def parse_json(text: str, m: int, n: int):
    try:
        doc = json.loads(text)
        if doc["graph"] != {"m": m, "n": n} or doc["q"] != m + n - 1:
            raise Rejected("graph header does not match the spec")
        labels = {}
        for entry in doc["vertices"]:
            if entry["id"] in labels:
                raise Rejected(f"vertex {entry['id']} listed twice")
            labels[entry["id"]] = entry["label"]
        edges = [(e["from"], e["to"], e["label"]) for e in doc["edges"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise Rejected(f"malformed JSON document: {exc!r}") from None
    if not all(type(v) is int for v in labels.values()):
        raise Rejected("non-integer vertex label")
    return labels, edges


def parse_csv(text: str, m: int, n: int):
    lines = text.splitlines()
    try:
        split = lines.index("edge,from,to,label")
    except ValueError:
        raise Rejected("CSV has no edge section") from None
    if lines[0] != "vertex,label":
        raise Rejected("CSV has no vertex header")
    labels = {}
    for line in lines[1:split]:
        vertex, label = line.split(",")
        if vertex in labels:
            raise Rejected(f"vertex {vertex} listed twice")
        labels[vertex] = _int(label)
    edges = []
    for number, line in enumerate(lines[split + 1 :], start=1):
        name, a, b, label = line.split(",")
        if name != f"e{number}":
            raise Rejected(f"edge row {number} is named {name!r}")
        edges.append((a, b, _int(label)))
    return labels, edges


_DOT_NODE = re.compile(r'  (\w+) \[label="(\w+):(-?[0-9]+)"\];')
_DOT_EDGE = re.compile(r"  (\w+) -- (\w+) \[label=(-?[0-9]+)\];")


def parse_dot(text: str, m: int, n: int):
    lines = text.splitlines()
    if not lines or lines[0] != "graph G {" or lines[-1] != "}":
        raise Rejected("DOT text is not one 'graph G { ... }' block")
    labels, edges = {}, []
    for line in lines[1:-1]:
        node = _DOT_NODE.fullmatch(line)
        edge = _DOT_EDGE.fullmatch(line)
        if node and node.group(1) == node.group(2) and node.group(1) not in labels:
            labels[node.group(1)] = int(node.group(3))
        elif edge:
            edges.append((edge.group(1), edge.group(2), int(edge.group(3))))
        else:
            raise Rejected(f"unexpected DOT line {line!r}")
    return labels, edges


PARSERS = {"json": parse_json, "csv": parse_csv, "dot": parse_dot}


def check_labeled_union(fmt: str, text: str, m: int, n: int):
    """Parse one output, check it against C_m + P_n; return (labels, problems)."""
    labels, stored = PARSERS[fmt](text, m, n)
    edges = [(a, b) for a, b, _ in stored]
    require_topology(union_graph(m, n), labels, edges)
    for a, b, label in stored:
        if label != abs(labels[a] - labels[b]):
            raise Rejected(f"edge {a}-{b} states label {label}, not |f({a}) - f({b})|")
    return labels, graceful_problems(labels, edges)


# --- search evidence ------------------------------------------------------------


def load_certificates(path: Path = CERTIFICATES) -> dict[str, list[int]]:
    """Stored certificates, each checked against its spec before use."""
    certificates = json.loads(path.read_text())
    for spec, values in certificates.items():
        vertices, edges = spec_graph(spec)
        if len(values) != len(vertices):
            raise Rejected(f"stored certificate for {spec} has the wrong length")
        problems = graceful_problems(dict(zip(vertices, values)), edges)
        if problems:
            raise Rejected(f"stored certificate for {spec} is invalid: {problems}")
    return certificates


def expected_status(spec: str, certificates: dict[str, list[int]]) -> str:
    """The verdict a correct oracle must reach, with the evidence checked here."""
    vertices, edges = spec_graph(spec)
    if not is_bipartite(vertices, edges):
        return "exhausted-none"
    terms = spec_terms(spec)
    if len(terms) == 1 and terms[0][0] == "P":
        labels = path_labeling(terms[0][1])
    elif spec in certificates:
        labels = certificates[spec]
    else:
        raise Rejected(f"no evidence for the verdict on {spec}")
    if graceful_problems(dict(zip(vertices, labels)), edges):
        raise Rejected(f"evidence for {spec} does not check")
    return "found"


_CERT_LINE = re.compile(r"  (w[0-9]+) = (-?[0-9]+)")


def check_search(job: dict, certificates: dict[str, list[int]]) -> tuple[str, str]:
    lines = job["stdout"].splitlines()
    status = lines[0].removeprefix("status: ") if lines else ""
    expected = expected_status(job["spec"], certificates)
    want_rc = {"found": 0, "exhausted-none": 2, "budget-exhausted": 3}.get(status)
    if want_rc is None or job["rc"] != want_rc:
        return WRONG, f"status {status!r} with exit code {job['rc']}"
    if status == "budget-exhausted":
        return FAILED, "budget exhausted before a verdict"
    if status != expected:
        return WRONG, f"verdict {status}, evidence says {expected}"
    if status == "found":
        labels = {}
        for line in lines[lines.index("certificate (verifier-checked):") + 1 :]:
            match = _CERT_LINE.fullmatch(line)
            if match is None:
                return WRONG, f"unreadable certificate line {line!r}"
            labels[match.group(1)] = int(match.group(2))
        expected_graph = spec_graph(job["spec"])
        require_topology(expected_graph, labels, expected_graph[1])
        problems = graceful_problems(labels, expected_graph[1])
        if problems:
            return WRONG, f"certificate fails: {problems}"
    return OK, ""


# --- jobs -----------------------------------------------------------------------


class Batch:
    """Checks one round of jobs; caches parsed outputs for cross-checks."""

    def __init__(self, certificates: dict[str, list[int]]):
        self.certificates = certificates
        self.parsed: dict[str, tuple[dict[str, int], list[str]]] = {}

    def labeled(self, path: str, fmt: str, m: int, n: int):
        if path not in self.parsed:
            self.parsed[path] = check_labeled_union(fmt, Path(path).read_text(), m, n)
        return self.parsed[path]

    def check(self, job: dict) -> tuple[str, str]:
        try:
            if job["kind"] == "search":
                return check_search(job, self.certificates)
            if job["kind"] == "verify":
                return self.check_verify(job)
            return self.check_generate(job)
        except Rejected as exc:
            return WRONG, str(exc)
        except (ValueError, KeyError, IndexError) as exc:
            return WRONG, f"unreadable output: {exc!r}"
        except OSError as exc:
            return FAILED, f"output missing: {exc}"

    def check_generate(self, job: dict) -> tuple[str, str]:
        m, n, path = job["m"], job["n"], job["path"]
        if job["in_range"] and job["rc"] != 0:
            return WRONG, f"in-range C{m}+P{n} exited {job['rc']}"
        labels, problems = self.labeled(path, job["format"], m, n)
        if problems and job["in_range"]:
            return WRONG, f"in-range C{m}+P{n} is not odd graceful: {problems}"
        want_rc = 1 if problems else 0
        if job["rc"] != want_rc:
            return WRONG, f"exit code {job['rc']}, output says {want_rc}"
        twin = job.get("same_bytes_as")
        if twin and Path(twin).read_bytes() != Path(path).read_bytes():
            return WRONG, f"{path} differs from {twin} byte for byte"
        reference = job.get("same_labels_as")
        if reference and self.labeled(reference, "json", m, n)[0] != labels:
            return WRONG, f"{path} has other labels than {reference}"
        return OK, ""

    def check_verify(self, job: dict) -> tuple[str, str]:
        _, problems = self.labeled(job["path"], "json", job["m"], job["n"])
        want_rc = 1 if problems else 0
        if job["rc"] != want_rc:
            return WRONG, f"verify exit code {job['rc']}, document says {want_rc}"
        if not job["stdout"].strip():
            return WRONG, "verify printed no report"
        return OK, ""


def serve() -> int:
    certificates = load_certificates()
    for line in sys.stdin:
        batch = Batch(certificates)
        verdicts = [batch.check(job) for job in json.loads(line)]
        print(json.dumps(verdicts), flush=True)
    return 0


# --- self-test --------------------------------------------------------------------


def _altered_copies(labels: dict[str, int]):
    """Each labeling with exactly one label changed.

    Moving one label by 1 flips the parity of every difference at that
    vertex, and copying a neighbour's label repeats a label: both must fail.
    """
    values = list(labels.values())
    for vertex, value in labels.items():
        yield dict(labels, **{vertex: value + 1 if value == 0 else value - 1})
        other = next(v for v in values if v != value)
        yield dict(labels, **{vertex: other})


def self_test() -> None:
    certificates = load_certificates()
    cases = [(spec, spec_graph(spec), labels) for spec, labels in certificates.items()]
    cases += [(f"P{n}", spec_graph(f"P{n}"), path_labeling(n)) for n in (2, 3, 12, 31)]
    for spec, (vertices, edges), values in cases:
        labels = dict(zip(vertices, values))
        if graceful_problems(labels, edges):
            raise AssertionError(f"self-test: valid labeling of {spec} rejected")
        for altered in _altered_copies(labels):
            if not graceful_problems(altered, edges):
                raise AssertionError(f"self-test: altered labeling of {spec} accepted")
    for spec, bipartite in (("C7", False), ("C9", False), ("C8+P3", True), ("C4+C5", False)):
        if is_bipartite(*spec_graph(spec)) != bipartite:
            raise AssertionError(f"self-test: wrong bipartiteness for {spec}")
    # one union document through each format, then with one label altered
    m, n = 4, 3
    vertices, edges = union_graph(m, n)
    labels = dict(zip(vertices, certificates[f"C{m}+P{n}"]))
    texts = _render(labels, edges, m, n)
    for fmt, text in texts.items():
        parsed, problems = check_labeled_union(fmt, text, m, n)
        if problems or parsed != labels:
            raise AssertionError(f"self-test: valid {fmt} document rejected")
        bad = dict(labels, u2=labels["u2"] - 1)
        bad_text = _render(bad, edges, m, n)[fmt]
        try:
            _, problems = check_labeled_union(fmt, bad_text, m, n)
        except Rejected:
            problems = ["rejected"]
        if not problems:
            raise AssertionError(f"self-test: altered {fmt} document accepted")


def _render(labels: dict[str, int], edges, m: int, n: int) -> dict[str, str]:
    """Documents in the three formats, written from their documented layout."""
    diff = {(a, b): abs(labels[a] - labels[b]) for a, b in edges}
    doc = {
        "graph": {"m": m, "n": n},
        "q": len(edges),
        "vertices": [{"id": v, "label": x} for v, x in labels.items()],
        "edges": [{"from": a, "to": b, "label": d} for (a, b), d in diff.items()],
    }
    csv = ["vertex,label"] + [f"{v},{x}" for v, x in labels.items()]
    csv += ["edge,from,to,label"]
    csv += [f"e{i},{a},{b},{d}" for i, ((a, b), d) in enumerate(diff.items(), 1)]
    dot = ["graph G {"] + [f'  {v} [label="{v}:{x}"];' for v, x in labels.items()]
    dot += [f"  {a} -- {b} [label={d}];" for (a, b), d in diff.items()] + ["}"]
    return {
        "json": json.dumps(doc, indent=2),
        "csv": "\n".join(csv) + "\n",
        "dot": "\n".join(dot) + "\n",
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        sys.exit(serve())
    if sys.argv[1:] == ["--self-test"]:
        self_test()
        print("checker self-test: ok")
        sys.exit(0)
    print("usage: checker.py --self-test | --serve", file=sys.stderr)
    sys.exit(64)
