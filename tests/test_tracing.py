"""Every name ``perfbench/tracing.py`` wraps exists in the package.

The tracer replaces module-level names such as ``cli.build_free_graph`` by
name, and a missing one fails only when a traced benchmark run starts. This
test loads the tracer from its file, as ``perfbench/run.py`` does, and
installs it on the package.
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
