"""Every public name resolves: each module's __all__, and the functions that
perfbench's tracer wraps, so a deletion that breaks either fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sgkink

MODULES = ["sgkink"] + sorted(
    f"sgkink.{m.name}" for m in pkgutil.iter_modules(sgkink.__path__))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced() -> dict:
    """perfbench's TRACED table, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_traced_functions_exist():
    table = traced()
    assert table
    missing = [f"{mod}.{fn}" for mod, fns in table.items() for fn in fns
               if not callable(getattr(
                   importlib.import_module(f"sgkink.{mod}"), fn, None))]
    assert not missing, f"perfbench traces missing functions: {missing}"
