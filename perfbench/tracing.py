"""Spans around the program's layer functions, installed from outside the package.

``oddgraceful.cli``, ``oddgraceful.graphspec`` and ``oddgraceful.search`` call
their layer functions through module-level names. ``Tracer.installed()``
replaces those names with wrappers that record a span (name, start, end,
parent, command id) and the counts seen at that boundary, and restores them
on exit. Spans stay in memory; ``Tracer.write`` saves them when the run ends.

A span's self time is its duration minus the duration of its wrapped
children; a layer's ``busy_s`` is the summed self time of its spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _q_of_params(args, result):
    return {"q": args[0].q}


def _q_of_topology(args, result):
    return {"q": result.q}


def _verify_counts(args, result):
    return {"q": args[0].q, "violations": len(result.violations)}


def _bytes_out(args, result):
    return {"bytes": len(result.encode())}


def _bytes_in(args, result):
    return {"bytes": len(args[0].encode())}


def _search_counts(args, result):
    stats = result.stats
    return {"nodes": stats.nodes_expanded, "tried": stats.assignments_tried}


# (module, name it is called by, span name, counts taken at the boundary)
LAYERS = (
    ("cli", "parse_graph_spec", "graphspec.parse_graph_spec", None),
    ("cli", "validate_params", "construction.params", None),
    ("cli", "force_params", "construction.params", None),
    ("cli", "build_union_graph", "graphs.build_union_graph", _q_of_topology),
    ("cli", "closed_form_labeling", "construction.closed_form_labeling", _q_of_params),
    ("cli", "algorithmic_labeling", "construction.algorithmic_labeling", _q_of_params),
    ("cli", "verify_odd_graceful", "verification.verify_odd_graceful", _verify_counts),
    ("cli", "labeling_document", "formats.labeling_document", None),
    ("cli", "document_to_json", "formats.document_to_json", _bytes_out),
    ("cli", "to_csv", "formats.to_csv", _bytes_out),
    ("cli", "to_dot", "formats.to_dot", _bytes_out),
    ("cli", "parse_labeling_document", "formats.parse_labeling_document", _bytes_in),
    ("cli", "topology_from_spec", "graphspec.topology_from_spec", None),
    ("cli", "build_free_graph", "graphs.build_free_graph", None),
    ("graphspec", "build_free_graph", "graphs.build_free_graph", None),
    ("cli", "exhaustive_search", "search.exhaustive_search", _search_counts),
    ("search", "verify_odd_graceful", "verification.verify_odd_graceful", _verify_counts),
)

COMMANDS = ("generate", "verify", "search")
BUSY = (
    "graphspec.parse_graph_spec", "graphspec.topology_from_spec",
    "graphs.build_free_graph", "graphs.build_union_graph", "construction.params",
    "construction.closed_form_labeling", "construction.algorithmic_labeling",
    "formats.labeling_document", "formats.document_to_json", "formats.to_csv",
    "formats.to_dot", "formats.parse_labeling_document", "search.exhaustive_search",
)
PER_EDGE = (
    "graphs.build_union_graph", "construction.closed_form_labeling",
    "construction.algorithmic_labeling",
)
VERIFY = "verification.verify_odd_graceful"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._command = -1

    def _span(self, name: str, fn, counts, command=None):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "command_id": self._command, "name": name,
                    "parent": self._open[-1] if self._open else None}
            if command is not None:
                span["command"] = command
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def command(self, main, argv: list[str]) -> int:
        """Run ``main(argv)`` as the root span of a new command."""
        self._command += 1
        return self._span("cli.main", main, None, command=argv[0])(argv)

    @contextlib.contextmanager
    def installed(self):
        originals = []
        for module_name, attr, name, counts in LAYERS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self._span(name, original, counts))
        try:
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one round's spans (see README for each name)."""
    child_time: dict[int, float] = defaultdict(float)
    command_of: dict[int, str] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
        if span["name"] == "cli.main":
            command_of[span["command_id"]] = span["command"]
    busy: dict[str, float] = defaultdict(float)
    edges: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span["end"] - span["start"]
        self_time = duration - child_time[span["id"]]
        name = span["name"]
        if name == "cli.main":
            busy[f"cli.{span['command']}.wall"] += duration
        elif name == VERIFY:
            name = f"{VERIFY}.{command_of[span['command_id']]}"
            counts["verification.violations"] += span.get("violations", 0)
        busy[name] += self_time
        edges[name] += span.get("q", 0)
        if "bytes" in span:
            read = name == "formats.parse_labeling_document"
            counts["formats.bytes_read" if read else "formats.bytes_written"] += span["bytes"]
        counts["search.nodes_expanded"] += span.get("nodes", 0)
        counts["search.assignments_tried"] += span.get("tried", 0)

    def per_edge(name):
        return busy[name] / edges[name] * 1e9 if edges[name] else 0.0

    metrics = {"cli.main.self_s": busy["cli.main"]}
    metrics.update({f"cli.{c}.wall_s": busy[f"cli.{c}.wall"] for c in COMMANDS})
    metrics.update({f"{name}.busy_s": busy[name] for name in BUSY})
    metrics.update({f"{name}.ns_per_edge": per_edge(name) for name in PER_EDGE})
    for command in COMMANDS:
        metrics[f"{VERIFY}.{command}.busy_s"] = busy[f"{VERIFY}.{command}"]
    for command in ("generate", "verify"):
        metrics[f"{VERIFY}.{command}.ns_per_edge"] = per_edge(f"{VERIFY}.{command}")
    for name in ("verification.violations", "formats.bytes_written", "formats.bytes_read",
                 "search.nodes_expanded", "search.assignments_tried"):
        metrics[name] = counts[name]
    nodes, search_s = counts["search.nodes_expanded"], busy["search.exhaustive_search"]
    metrics["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
    metrics["search.tried_per_node"] = counts["search.assignments_tried"] / nodes if nodes else 0.0
    return metrics


UNITS = {"self_s": "s", "wall_s": "s", "busy_s": "s", "ns_per_edge": "ns",
         "violations": "count", "bytes_written": "bytes", "bytes_read": "bytes",
         "nodes_expanded": "count", "assignments_tried": "count",
         "nodes_per_s": "1/s", "tried_per_node": "tried/node", "overhead_pct": "%"}


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced rounds; the lower middle value, so counts stay whole."""
    return {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
