#!/usr/bin/env python3
"""Print the size of the ``uncond`` package source in lines, two ways.

    python3 tools/source_size.py [DIR]

DIR defaults to ``src/uncond`` next to this script's parent.  It prints one
line per ``*.py`` file in DIR, then one line of totals.  The first count is
every line of the file.  The second keeps only the lines that hold code: a
line counts when some token other than a comment starts or continues on it,
and it is not part of a docstring (the string that opens a module, class or
function body, found with ``ast``).  So blank lines, comment-only lines and
docstrings drop out, and a multi-line statement counts every line it spans.
"""

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` holding code outside docstrings."""
    spanned = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            spanned.update(range(tok.start[0], tok.end[0] + 1))
    return len(spanned - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1] / "src" / "uncond"
    total = code = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, kept = len(source.splitlines()), code_lines(source)
        print(f"{path.name}: {lines} lines, {kept} code")
        total, code = total + lines, code + kept
    print(f"{root}: {total} lines, {code} without docstrings, comments and blank lines")


if __name__ == "__main__":
    main(sys.argv[1:])
