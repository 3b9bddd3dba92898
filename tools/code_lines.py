"""Print the code lines of each Python module under the given paths.

A code line is a line that holds part of a statement: blank lines, comment
lines and the lines of docstrings do not count. The count reads the source
with ``ast`` and ``tokenize`` from the standard library alone.

    python tools/code_lines.py src/evident
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# the nodes whose first statement may be a docstring
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

# tokens that are not code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    total = 0
    for root in map(Path, paths or ["src/evident"]):
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
