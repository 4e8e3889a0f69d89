"""Command-line interface: generate, verify, search, and bench.

Exit codes: 0 success (or labeling found), 1 verification failure, invalid
parameters or an input too large to process, 2 search exhausted with no
labeling, 3 search budget exhausted, 64 usage, parse or output errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Iterable

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
    GraphSpecError,
    OddGracefulError,
)
from .formats import (
    document_pieces,
    document_to_json,  # unused here, but perfbench/tracing.py wraps it under this name
    labeling_document,  # likewise
    parse_labeling_document,
    report_to_dict,
    to_csv,
    to_dot,
)
# build_free_graph is unused here, but perfbench/tracing.py wraps it under this name
from .graphs import build_free_graph, build_union_graph
from .graphspec import parse_graph_spec, read_text, topology_from_spec, union_form
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


def _print_stderr(line: str) -> None:
    """Print one line to standard error; if it cannot be written, the line is
    lost and the exit code still reports the outcome."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _write_out(pieces: Iterable[str], path: str | None) -> None:
    """Write the text's pieces one at a time. The first is taken before the
    file is opened, so a writer that fails before it leaves the file as it was."""
    pieces = iter(pieces)
    first = next(pieces)
    if path is None:
        for piece in chain((first,), pieces):
            print(piece, end="")  # like every print, skipped when stdout is closed
        return
    try:
        with open(path, "w") as out:
            out.write(first)
            out.writelines(pieces)
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
        _print_stderr(f"verification failed ({_count(report.violations)}):")
        for violation in report.violations:
            _print_stderr(f"  - {violation.describe()}")
        if not args.force:
            return EXIT_INVALID
    if args.format == "json":
        pieces = document_pieces(topology, labeling, report.induced)
    else:
        writer = to_dot if args.format == "dot" else to_csv
        pieces = [writer(topology, labeling, report.induced)]
    _write_out(pieces, args.out)
    return EXIT_OK if report.is_odd_graceful else EXIT_INVALID


def _cmd_verify(args) -> int:
    text = read_text(None if args.input == "-" else args.input)
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
    # --edges takes any path; in a spec an @ term ends at the next "+"
    spec = parse_graph_spec(args.spec) if args.edges is None else (("@", args.edges),)
    topology = topology_from_spec(spec)
    budget = SearchBudget(max_nodes=args.max_nodes, time_limit_ms=args.timeout_ms)
    outcome = exhaustive_search(topology, budget)
    print(f"status: {outcome.status.value}")
    print(f"nodes expanded: {outcome.stats.nodes_expanded}")
    print(f"assignments tried: {outcome.stats.assignments_tried}")
    if outcome.stats.proof is not None:
        print(f"proof: {outcome.stats.proof}")
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
    _write_out([bench_csv(samples)], args.out)
    if args.out is not None:
        for method in METHODS:
            slope, r_squared, _ = fit(samples, method)
            _print_stderr(f"method={method} slope={slope:.4f} r_squared={r_squared:.4f}")
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
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after --help, whose text the flush below writes
            code = exc.code
        else:
            code = _HANDLERS[args.command](args)
        print(end="", flush=True)  # a full or broken stdout fails here, not at exit
        return code
    except (UsageError, GraphSpecError, DocumentError) as exc:
        _print_stderr(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:  # the handlers map the errors of every file they open
        _print_stderr(f"error: cannot write standard output: {exc}")
        if sys.stdout is sys.__stdout__:  # the unwritten buffer would fail again at exit
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_USAGE
    except OddGracefulError as exc:
        _print_stderr(f"error: {exc}")
        return EXIT_INVALID
    except MemoryError:
        _print_stderr("error: input too large: out of memory")
        return EXIT_INVALID
    except OverflowError as exc:  # a size past any index, such as a huge --q-list entry
        _print_stderr(f"error: input too large: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
