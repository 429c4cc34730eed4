"""The package exports only what the program itself uses.

Every name in pairslit.__all__ must be read somewhere in src/pairslit
(outside __init__.py, which only re-exports), scripts/ or perfbench/, as a
name or as an attribute. A definition alone does not count, and neither do
docstrings or comments. Reference code that only the tests use lives in
tests/ (oracles.py, fd_reference.py, endpoint_oracle.py, pair_transport.py).
"""

import ast
import inspect
from pathlib import Path

import pairslit
from pairslit import _kernels, integrator

ROOT = Path(__file__).resolve().parent.parent


def program_files():
    package = (ROOT / "src" / "pairslit").glob("*.py")
    others = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [f for f in package if f.name != "__init__.py"] + others


def names_read(path):
    """Every identifier that path loads as a name or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_used_by_the_program():
    read = set().union(*(names_read(f) for f in program_files()))
    assert all(hasattr(pairslit, name) for name in pairslit.__all__)
    assert [name for name in pairslit.__all__ if name not in read] == []


def traced_functions(module):
    """The functions of module that perfbench/tracer.py wraps: its public ones defined there."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def test_the_tracer_sees_each_kernel_and_one_integrator_span():
    # The tracer counts velocity evaluations only for kernels whose
    # __name__ contains "velocity", from the size of their first argument:
    # a kernel left named after its factory's closure would count 0. Every
    # public function of the integrator is one traced span per call, so a
    # public step function would record one span per step.
    kernels = traced_functions(_kernels)
    assert sorted(kernels) == ["reduced_velocity", "reduced_velocity_array"]
    for name, fn in kernels.items():
        assert fn.__name__ == fn.__qualname__ == name
        assert next(iter(inspect.signature(fn).parameters)) == "d"
    assert sorted(traced_functions(integrator)) == ["integrate_pairs"]
