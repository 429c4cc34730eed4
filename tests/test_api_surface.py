"""The package exports only what the program itself uses.

Every name in pairslit.__all__ must be read somewhere in src/pairslit
(outside __init__.py, which only re-exports), scripts/ or perfbench/, as a
name or as an attribute. A definition alone does not count, and neither do
docstrings or comments. Reference code that only the tests use lives in
tests/ (oracles.py, fd_reference.py, endpoint_oracle.py, pair_transport.py).
"""

import ast
from pathlib import Path

import pairslit

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
