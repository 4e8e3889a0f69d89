"""Command-line interface: generate, verify, search, and bench.

Exit codes: 0 success (or labeling found), 1 verification failure, invalid
parameters or an input too large to process, 2 search exhausted with no
labeling, 3 search budget exhausted, 64 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import bench_csv, fit, run_bench
from .construction import (
    METHODS,
    algorithmic_labeling,
    closed_form_labeling,
    force_params,
    validate_params,
)
from .errors import (
    DocumentError,
    EmptyGraphError,
    GraphSpecError,
    OddGracefulError,
)
from .formats import (
    document_to_json,
    labeling_document,
    parse_labeling_document,
    report_to_dict,
    to_csv,
    to_dot,
)
from .graphs import build_free_graph, build_union_graph
from .graphspec import parse_edge_list, parse_graph_spec, topology_from_spec, union_form
from .search import SearchBudget, SearchStatus, exhaustive_search
from .verification import verify_odd_graceful

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NONE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


class UsageError(OddGracefulError):
    """Command-line usage violation; maps to exit code 64."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="oddgraceful",
        description="Construct, verify, and search odd graceful labelings of cycle-path unions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a labeling of C<m>+P<n>")
    gen.add_argument("--spec", required=True, help='graph spec, e.g. "C8+P12"')
    gen.add_argument(
        "--method", choices=list(METHODS), default="closed",
        help="construction route (default: closed)",
    )
    gen.add_argument("--format", choices=["json", "dot", "csv"], default="json")
    gen.add_argument(
        "--force", action="store_true",
        help="construct even when (m, n) is out of range; the result is still verified",
    )
    gen.add_argument("--out", help="output file (default: stdout)")

    ver = sub.add_parser("verify", help="check a labeling document")
    ver.add_argument("--input", help="document file (default: stdin)")
    ver.add_argument("--json", action="store_true", help="machine-readable report")

    sea = sub.add_parser("search", help="exhaustive search for a labeling")
    source = sea.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help='graph spec, e.g. "C4+P3" (terms join disjointly)')
    source.add_argument("--edges", help="edge-list file, one 'a b' pair per line")
    sea.add_argument("--max-nodes", type=_positive_int, default=SearchBudget.max_nodes)
    sea.add_argument("--timeout-ms", type=_positive_int, default=None)

    ben = sub.add_parser("bench", help="time the construction and fit a log-log slope")
    ben.add_argument(
        "--q-list", default="1000,10000,100000,1000000",
        help="comma-separated edge counts (default: 1000,10000,100000,1000000)",
    )
    ben.add_argument("--reps", type=_positive_int, default=5)
    ben.add_argument(
        "--m", type=_positive_int, default=8,
        help="fixed cycle length; the path length varies with q (default: 8)",
    )
    ben.add_argument("--out", help="output file (default: stdout)")
    return parser


def _count(violations) -> str:
    return f"{len(violations)} violation" + ("" if len(violations) == 1 else "s")


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None


def _cmd_generate(args) -> int:
    form = union_form(parse_graph_spec(args.spec))
    if form is None:
        raise UsageError(
            "generate needs a spec with exactly one cycle and one path term, e.g. C8+P12"
        )
    m, n = form
    params = force_params(m, n) if args.force else validate_params(m, n)
    topology = build_union_graph(m, n)
    if args.method == "closed":
        labeling = closed_form_labeling(params)
    else:
        labeling = algorithmic_labeling(params)
    report = verify_odd_graceful(topology, labeling)
    if not report.is_odd_graceful:
        print(
            f"verification failed ({_count(report.violations)}):", file=sys.stderr
        )
        for violation in report.violations:
            print(f"  - {violation.describe()}", file=sys.stderr)
        if not args.force:
            return EXIT_INVALID
    if args.format == "json":
        text = document_to_json(labeling_document(topology, labeling))
    elif args.format == "dot":
        text = to_dot(topology, labeling)
    else:
        text = to_csv(topology, labeling)
    _write_out(text, args.out)
    return EXIT_OK if report.is_odd_graceful else EXIT_INVALID


def _cmd_verify(args) -> int:
    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        text = _read_file(args.input)
    topology, labeling = parse_labeling_document(text)
    report = verify_odd_graceful(topology, labeling)
    if args.json:
        print(json.dumps(report_to_dict(report, topology.q), indent=2))
    elif report.is_odd_graceful:
        print(f"odd graceful: yes ({len(topology.names)} vertices, q={topology.q})")
    else:
        print(f"odd graceful: NO ({_count(report.violations)})")
        for violation in report.violations:
            print(f"  - {violation.describe()}")
    return EXIT_OK if report.is_odd_graceful else EXIT_INVALID


def _cmd_search(args) -> int:
    if args.edges is not None:
        pairs = parse_edge_list(_read_file(args.edges))
        if not pairs:
            raise EmptyGraphError(f"edge list {args.edges!r} has no edges")
        topology = build_free_graph(pairs)
    else:
        topology = topology_from_spec(parse_graph_spec(args.spec), read_file=_read_file)
    budget = SearchBudget(max_nodes=args.max_nodes, time_limit_ms=args.timeout_ms)
    outcome = exhaustive_search(topology, budget)
    print(f"status: {outcome.status.value}")
    print(f"nodes expanded: {outcome.stats.nodes_expanded}")
    print(f"assignments tried: {outcome.stats.assignments_tried}")
    if outcome.labeling is not None:
        print("certificate (verifier-checked):")
        for name, label in zip(topology.names, outcome.labeling):
            print(f"  {name} = {label}")
    return {
        SearchStatus.FOUND: EXIT_OK,
        SearchStatus.EXHAUSTED_NONE: EXIT_NONE,
        SearchStatus.BUDGET_EXHAUSTED: EXIT_BUDGET,
    }[outcome.status]


def _cmd_bench(args) -> int:
    try:
        q_values = [int(part) for part in args.q_list.split(",") if part.strip()]
    except ValueError:
        raise UsageError(
            f"--q-list must be comma-separated integers, got {args.q_list!r}"
        ) from None
    if not q_values:
        raise UsageError("--q-list is empty")
    samples = run_bench(q_values, repetitions=args.reps, m=args.m)
    _write_out(bench_csv(samples), args.out)
    if args.out is not None:
        for method in METHODS:
            slope, r_squared, _ = fit(samples, method)
            print(
                f"method={method} slope={slope:.4f} r_squared={r_squared:.4f}",
                file=sys.stderr,
            )
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (UsageError, GraphSpecError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OddGracefulError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
