"""Count the code lines of each `src/gyrotrack` module and their total.

A code line is a physical line that holds part of a statement: blank
lines, comment lines and docstrings (a string literal standing alone as
the first statement of a module, class or function) do not count.  A
statement that spans lines counts each of its lines.

    python tests/code_lines.py [package directory]

The directory defaults to the package next to this file.  pytest does
not collect this file (its name does not start with ``test_``).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[0]) if argv else \
        Path(__file__).resolve().parent.parent / "src" / "gyrotrack"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
