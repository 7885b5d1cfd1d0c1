"""Print each module's code lines and total lines, the code lines being those outside docstrings and comments.

From the root of the checkout:

    python3 tools/code_lines.py [DIR]     (default: src/risroute)

A line is code when it holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body). Blank
lines are neither. The last row sums the modules.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body and isinstance(first := node.body[0], ast.Expr) \
                and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    folder = Path(argv[0] if argv else "src/risroute")
    rows = [(code_lines(text := path.read_text()), text.count("\n"), path.name)
            for path in sorted(folder.glob("*.py"))]
    if not rows:
        sys.exit(f"no modules in {folder}")
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    print(f"{'code':>6} {'lines':>6}  module")
    for code, total, name in rows:
        print(f"{code:>6} {total:>6}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
