"""Count the lines and the code lines of each Python module under source directories.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring; docstrings are found with ``ast``, so a
string literal anywhere else counts as code. Each module gets one row of
total lines, code lines and its path, and a last row sums them. Run from the
repository root:

    python3 tools/src_lines.py src/risimage

With no directory, ``src`` is counted.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers spanned by every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """Total lines and code lines of the module text ``source``."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", type=Path, nargs="*", default=[ROOT / "src"], metavar="SRC_DIR")
    args = parser.parse_args(argv)
    total = code = 0
    for directory in args.dirs:
        for path in sorted(directory.rglob("*.py")):
            lines, code_lines = count_lines(path.read_text(encoding="utf-8"))
            total, code = total + lines, code + code_lines
            print(f"{lines:7d} {code_lines:7d}  {path}")
    print(f"{total:7d} {code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
