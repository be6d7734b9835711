"""Count the code lines of Python sources: lines that hold code, not counting
docstrings, comments or blank lines.

Usage: python tools/count_lines.py [PATH ...]   (default: src)

A directory is searched recursively for *.py files.  Prints the total.
Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv) -> int:
    roots = [Path(a) for a in argv] or [Path("src")]
    files = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    print(sum(count_file(path) for path in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
