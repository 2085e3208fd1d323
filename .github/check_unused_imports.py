"""Fail when a module of the package or of the tests imports a name that it
never reads.

    python3 .github/check_unused_imports.py

Parses every ``src/paretogames/*.py`` but ``__init__.py`` (whose imports are
the package's exports), and every ``tests/*.py``, with the standard ``ast``
module.  A name bound by an ``import`` or ``from ... import`` statement,
other than ``from __future__``, must be read somewhere in its module as a
name (an annotation counts; a name inside a string does not).  Prints one
line per unused name and exits 1 if any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paretogames"
TESTS = ROOT / "tests"


def unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    where = path.relative_to(ROOT)
                    found.append(f"{where}:{node.lineno}: {bound} is never read")
    return found


def main() -> int:
    found = [
        line
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]
        if path.parent != PACKAGE or path.name != "__init__.py"
        for line in unused(path)
    ]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
