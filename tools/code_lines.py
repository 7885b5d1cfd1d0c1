"""Print each module's code lines and total lines, the code lines being those outside docstrings and comments.

From the root of the checkout:

    python3 tools/code_lines.py [DIR]                 (default: src/risroute)
    python3 tools/code_lines.py BASE_DIR HEAD_DIR     (both trees, then head minus base)

A line is code when it holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body). Blank
lines are neither. The last row sums the modules; a module that one of two trees
lacks counts 0 lines there.
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


def counts(folder: Path) -> dict[str, tuple[int, int]]:
    """Each module's (code lines, total lines), by file name."""
    table = {path.name: (code_lines(text := path.read_text()), text.count("\n")) for path in sorted(folder.glob("*.py"))}
    if not table:
        sys.exit(f"no modules in {folder}")
    return table


def main(argv: list[str]) -> None:
    tables = [counts(Path(folder)) for folder in argv or ["src/risroute"]]
    if len(tables) > 2:
        sys.exit("usage: code_lines.py [DIR | BASE_DIR HEAD_DIR]")
    names = sorted(set().union(*tables))
    rows = [[t.get(name, (0, 0)) for t in tables] for name in names]  # a module missing from a tree counts 0
    rows.append([tuple(map(sum, zip(*t.values()))) for t in tables])
    if len(tables) == 2:
        for row in rows:
            row.append((row[1][0] - row[0][0], row[1][1] - row[0][1]))
        print(f"{'base':>13} {'head':>13} {'change':>13}")
    print(" ".join(f"{'code':>6} {'lines':>6}" for _ in rows[0]) + "  module")
    for name, row in zip([*names, "total"], rows):
        cells = [f"{code:>6} {total:>6}" for code, total in row[:len(tables)]]
        cells += [f"{code:>+6} {total:>+6}" for code, total in row[len(tables):]]
        print(" ".join(cells) + f"  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
