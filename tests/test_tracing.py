"""Every name ``perfbench/tracing.py`` wraps exists in the package, and a
traced command does what the untraced one does.

The tracer replaces module-level names such as ``cli.build_free_graph`` by
name, and a missing one fails only when a traced benchmark run starts. Its
counts read the wrapped function's result, so a ``cli`` call to a wrapped
name that returns pieces, not text, fails only in a traced run. These tests
load the tracer from its file, as ``perfbench/run.py`` does, and install it
on the package.
"""

import importlib.util
from pathlib import Path

import oddgraceful
import oddgraceful.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    named = [(getattr(oddgraceful, module), attr) for module, attr, _, _ in tracing.LAYERS]
    before = [getattr(module, attr) for module, attr in named]
    with tracing.Tracer(oddgraceful).installed():
        during = [getattr(module, attr) for module, attr in named]
    assert all(a is not b for a, b in zip(before, during))
    assert [getattr(module, attr) for module, attr in named] == before


def run_commands(capsys, folder: Path, main) -> list[tuple]:
    """``generate`` in every format, to standard output and to a file, then
    ``verify`` of the JSON file and a search: each exit code, output and file."""
    argvs = []
    for form in ("json", "dot", "csv"):
        argv = ["generate", "--spec", "C8+P12", "--format", form]
        argvs += [(argv, None), ([*argv, "--out", str(folder / form)], folder / form)]
    argvs += [(["verify", "--input", str(folder / "json")], None)]
    argvs += [(["search", "--spec", "C4+P3"], None)]
    results = []
    for argv, written in argvs:
        code = main(argv)
        results.append((argv, code, capsys.readouterr(), written and written.read_bytes()))
    return results


def test_traced_commands_match_untraced(capsys, tmp_path):
    tracing = load_tracing()
    untraced = run_commands(capsys, tmp_path, oddgraceful.cli.main)
    tracer = tracing.Tracer(oddgraceful)

    def traced_main(argv):
        return tracer.command(oddgraceful.cli.main, argv)

    with tracer.installed():
        traced = run_commands(capsys, tmp_path, traced_main)
    assert [code for _, code, _, _ in untraced] == [0] * 8
    assert traced == untraced
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.generate.wall_s"] > 0 and metrics["search.nodes_expanded"] > 0
