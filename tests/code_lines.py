"""Print the code and raw line counts of each `src` file, and their totals.

Run from any checkout as `python tests/code_lines.py`; it counts the `src`
next to this file.  A code line is a source line that holds a token other
than a comment, and is not part of a module, class or function docstring.
A raw line is any line, as `wc -l` counts them.  Not a pytest module.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(code lines, raw lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text))), text.count("\n")


def main() -> int:
    total_code = total_raw = 0
    for path in sorted(SRC.rglob("*.py")):
        code, raw = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_raw += raw
        print(f"{path.relative_to(SRC)} {code} {raw}")
    print(f"total {total_code} {total_raw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
