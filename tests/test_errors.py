"""Every exception class in ``covercount.errors`` has a use in the package:
a ``raise`` statement in ``src/`` names it, or another class there derives
from it. An error class that outlives its last raiser is dead code that
callers may still try to catch."""

import ast
import inspect
from pathlib import Path

from covercount import errors

SRC = Path(__file__).parent.parent / "src" / "covercount"


def _name(node: ast.expr) -> str | None:
    """The class an expression names: ``Foo``, ``errors.Foo`` or ``Foo(...)`` give ``Foo``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_error_class_is_raised_or_subclassed():
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(node.exc))
            elif isinstance(node, ast.ClassDef):
                used.update(_name(base) for base in node.bases)
    defined = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert "ConfigError" in defined
    assert sorted(defined - used) == []
