"""Count the lines of the package source, in all and as code.

Prints the total lines of every ``.py`` file under ``src/``, then its code
lines: lines that hold a token other than a comment, with the docstrings of
modules, classes and functions left out. Blank lines count only in the
total. Run from anywhere: ``python tools/src_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main():
    root = Path(__file__).parent.parent / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path)
        total, code = total + lines, code + code_lines
    print(f"src lines: {total}")
    print(f"code lines: {code}")


if __name__ == "__main__":
    main()
