"""The benchmark's traced spans name functions that exist.

`bench/layertrace.py` wraps public cfisac functions by name, and
`bench/run.py` reads its per-layer metrics from those span names. A renamed
or deleted function would only show as a missing layer in a traced run, so
the names are checked here, read from the two files without importing them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def module_constant(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path.name}")


TRACED_MODULES = module_constant(BENCH / "layertrace.py", "MODULES")
SPANS = sorted({span for _, span, _ in module_constant(BENCH / "run.py",
                                                      "LAYERS")}
               | {".".join(method) for method in
                  module_constant(BENCH / "layertrace.py", "METHODS")})


@pytest.mark.parametrize("span", SPANS)
def test_span_is_a_public_cfisac_function(span):
    module_name, *path = span.split(".")
    assert module_name in TRACED_MODULES
    module = importlib.import_module(f"cfisac.{module_name}")
    owner = module
    for attr in path[:-1]:
        owner = vars(owner)[attr]
    func = vars(owner).get(path[-1])
    assert inspect.isfunction(func), f"{span} is not a function"
    assert func.__module__ == module.__name__
    assert not any(part.startswith("_") for part in path)
