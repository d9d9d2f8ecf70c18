"""Count the lines of each ``src/quasicut`` module: all of them, and the code lines.

    python3 tools/loc.py

All lines are ``wc -l``'s count, the newlines of the file. Code lines are
the lines that hold a token of code: every line a token other than a
comment or a line break spans, found by ``tokenize``, less the lines of
docstrings, found by ``ast`` (the leading string of a module, class or
function). Blank lines hold no such token. Prints one row per module,
then the totals.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quasicut"

# tokens that are not code: comments, line breaks and the tokenizer's markers
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(``wc -l``'s count, code lines) of the Python source ``text``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<18} {'lines':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<18} {lines:>6} {code:>6}")
    print(f"{'total':<18} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
