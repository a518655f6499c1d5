#!/usr/bin/env python3
"""Count the code lines of Python files: lines that hold a token of code.

Blank lines, comment lines and the lines of docstrings (the string that
opens a module, class or function body) are left out.  Prints one count
per file and, for more than one file, the total:

    python3 tools/code_lines.py src/gx1cycles/*.py
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths) -> int:
    if not paths:
        print("usage: code_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:>6}  {path}")
    if len(paths) > 1:
        print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
