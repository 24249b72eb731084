"""tools/src_lines.py, the line counter behind the source-size figures:
each kind of line is counted as its docstring says, and the totals are
the modules' line counts."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

QUOTES = '"' * 3
SOURCE = "\n".join([
    f"{QUOTES}Module docstring",            # 1 docstring
    f"on two lines.{QUOTES}",               # 2 docstring
    "",                                     # 3 blank
    "import os  # a trailing comment",      # 4 code
    "",                                     # 5 blank
    "# a comment-only line",                # 6 comment-only
    "",                                     # 7 blank
    "",                                     # 8 blank
    "def f():",                             # 9 code
    f"    {QUOTES}Function docstring.{QUOTES}",  # 10 docstring
    f"    text = {QUOTES}not a",            # 11 code: a string spanning lines
    f"docstring{QUOTES}",                   # 12 code
    "    return text",                      # 13 code
]) + "\n"


def test_count_sorts_every_kind_of_line():
    assert src_lines.count(SOURCE) == (13, 5, 3, 1)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "stlinfer").glob("*.py")), ids=lambda p: p.name)
def test_total_is_the_line_count_of_each_module(path):
    total, code, docs, comments = src_lines.count(path.read_text(encoding="utf-8"))
    assert total == path.read_bytes().count(b"\n")
    assert code + docs + comments <= total
