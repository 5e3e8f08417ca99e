"""Count the code lines of each module of src/unitfrechet.

A code line is a non-blank line that is not a comment and does not lie
inside a module, class or function docstring. The script prints one
line per module, largest first, then the total:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unitfrechet"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the module's, every class's and every
    function's docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(
        1 for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )


def main() -> int:
    counts = {path.stem: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<12} {count:5d}")
    print(f"{'total':<12} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
