"""The package names the benchmark in bench/ depends on.

bench/worker.py looks its functions up by layer at run time, so a rename in
the package would break every benchmark run and fail no other test.  The
benchmark's tables are read with ast: its code is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

from chargraph import classify, degrees
from chargraph.shapes import MAX_VERTICES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned(path: Path, name: str):
    """The literal value of the module-level assignment to name in path."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {name} in {path}")


def test_every_benchmark_name_resolves():
    api = assigned(BENCH / "worker.py", "API")
    assert api
    for layer, names in api.items():
        module = importlib.import_module(f"chargraph.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"chargraph.{layer}.{name}"


def test_classify_calls_graph_psl2_through_its_degrees_binding():
    # The benchmark's tracer spans classify -> degrees calls by rebinding
    # this imported name.
    assert classify.graph_psl2 is degrees.graph_psl2


def test_shape_vertex_cap_admits_the_benchmark_shapes():
    assert MAX_VERTICES >= assigned(BENCH / "inputs.py", "SHAPE_MAX_VERTICES")
