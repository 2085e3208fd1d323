"""Fail when a float enters the package outside its two allowed places.

    python3 .github/check_no_float.py

Parses every ``src/paretogames/*.py`` with the standard ``ast`` module and
looks for float literals (``0.5``, ``1e-9``) and calls of ``float``.  The
package computes in ``fractions.Fraction`` throughout; floats are allowed
only inside ``frontier_to_svg``, which places pixels, and in the
``MINUS_INFINITY = float("-inf")`` sentinel.  Prints one line per float and
exits 1 if any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paretogames"


def _exempt(node: ast.AST) -> bool:
    """True for ``frontier_to_svg`` and the sentinel's assignment."""
    if isinstance(node, ast.FunctionDef):
        return node.name == "frontier_to_svg"
    return isinstance(node, ast.Assign) and [
        getattr(t, "id", None) for t in node.targets
    ] == ["MINUS_INFINITY"]


def floats(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if _exempt(node)
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "call of float"))
    where = path.relative_to(ROOT)
    return [f"{where}:{line}: {what}" for line, what in sorted(found)]


def main() -> int:
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in floats(path)]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
