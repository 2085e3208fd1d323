"""The exception hierarchy: one exported class per fault, and each raised."""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import paretogames
import paretogames.errors as errors

SRC = Path(__file__).resolve().parents[1] / "src" / "paretogames"


def _raised_names() -> set[str]:
    """Names of the classes that some ``raise`` statement under src/ raises."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_exported_and_raised():
    classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj)
        and obj.__module__ == errors.__name__
        and obj is not errors.GameSolverError
    }
    assert "InvalidArgument" in classes
    exported = {n for n in classes if getattr(paretogames, n, None) is vars(errors)[n]}
    assert classes - exported == set()
    assert classes - _raised_names() == set()
