"""Count the code lines of the package: lines that are neither blank,
comment nor docstring.

Usage: ``python tools/src_lines.py [DIR]`` (default ``src``). Prints
each ``.py`` file under ``DIR`` with its line and code-line counts, then
the totals. A line counts as code when a token other than a comment or a
docstring starts, ends or spans it; a docstring is the string statement
that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The lines of the docstrings of a module and of its classes and
    functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the file at ``path``."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(source)
    lines = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        n_lines = len(path.read_text(encoding="utf-8").splitlines())
        n_code = code_lines(path)
        total_lines += n_lines
        total_code += n_code
        print(f"{n_code:6d} {n_lines:6d}  {path}")
    print(f"{total_code:6d} {total_lines:6d}  total (code lines, all lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
