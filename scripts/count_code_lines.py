"""Count the code lines of Python source files.

Usage: python scripts/count_code_lines.py PATH...

A line counts when it holds a token other than a comment, a line break, an
indent or a dedent, outside a docstring (the leading string of a module,
class or function). A string that spans lines counts on every line it spans.
Prints each file's count, then the total. Exit codes: 0 on success, 2 on a
missing argument, 3 on a file that cannot be read or parsed.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines of ``source``, by the rule above."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: count_code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in argv:
        try:
            with open(path, encoding="utf-8") as handle:
                count = count_code_lines(handle.read())
        except (OSError, UnicodeDecodeError, SyntaxError, tokenize.TokenError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 3
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
