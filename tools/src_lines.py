"""Count the lines of each `src/stlinfer` module: total, code, docstring
and comment-only.

A docstring line lies inside a module, class or function docstring (by
ast).  A code line holds part of any other token except a comment (by
tokenize; a string spanning lines counts on each).  A comment-only line
holds a comment and nothing else.  The rest are blank.

Run from the repository root:

    python3 tools/src_lines.py [SRC_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int, int, int]:
    """(total, code, docstring, comment-only) lines of Python source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(text.splitlines()), len(code), len(docs), len(comments - code - docs)


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src/stlinfer")
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in sorted(src.glob("*.py"))]
    rows.append(("total", tuple(sum(column) for column in zip(*(c for _, c in rows)))))
    print(f"{'module':<14}{'total':>7}{'code':>7}{'doc':>7}{'comment':>9}")
    for name, (total, code, docs, comments) in rows:
        print(f"{name:<14}{total:>7}{code:>7}{docs:>7}{comments:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
