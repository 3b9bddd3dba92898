"""The code-line counter in tools/code_lines.py."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    y = (x +
         1)

    return "not a docstring"


class C:
    """Class docstring."""

    text = """a multi-line
string that is code"""
'''


def test_counts_code_lines_only():
    # import, def, the two lines of y, return, class, and the two lines of text
    assert code_lines.code_lines(SOURCE) == 8


def test_a_module_of_docstring_and_comments_has_none():
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0
