"""Fail when the package opens a file in text mode without naming its encoding.

    python3 .github/check_text_encoding.py

Parses every ``.py`` file under ``src/`` with the standard ``ast`` module and
looks at each call of ``open``, ``.open``, ``.read_text`` and ``.write_text``.
``os.open`` is not one of them: it returns a file descriptor and never
decodes, and its second argument is a flag set, not a mode.
A call in text mode (a mode that is not a literal holding ``b``, or none)
must pass ``encoding``, by keyword or in its position; otherwise the
locale picks the encoding.  Prints one line per such call and exits 1 if any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# callee -> (position of the mode argument or None, position of encoding)
CALLS = {
    "open": (1, 3),
    ".open": (0, 2),
    ".read_text": (None, 0),
    ".write_text": (None, 1),
}


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return "os." + func.attr
        return "." + func.attr
    return None


def unnamed(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for node in sorted(calls, key=lambda node: node.lineno):
        callee = _callee(node.func)
        if callee not in CALLS:
            continue
        mode_at, encoding_at = CALLS[callee]
        keywords = {k.arg: k.value for k in node.keywords}
        if "encoding" in keywords or len(node.args) > encoding_at:
            continue
        mode = keywords.get("mode")
        if mode is None and mode_at is not None and len(node.args) > mode_at:
            mode = node.args[mode_at]
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue
        name = path.relative_to(SRC)
        found.append(f"{name}:{node.lineno}: {callee} in text mode without encoding=")
    return found


def main() -> int:
    found = [line for path in sorted(SRC.rglob("*.py")) for line in unnamed(path)]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
