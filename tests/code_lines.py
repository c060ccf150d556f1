"""Print the code and raw line counts of each `src` file, their totals,
and how many settings `src` declares.

Run from any checkout as `python tests/code_lines.py`; it counts the `src`
next to this file.  A code line is a source line that holds a token other
than a comment, and is not part of a module, class or function docstring.
A raw line is any line, as `wc -l` counts them.  The last line,
`settable <parameters> <fields>`, counts the function parameters that have
a default and the fields of classes decorated with `dataclass`.  Not a
pytest module.
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


def settable(tree: ast.Module) -> tuple[int, int]:
    """(parameters with a default, dataclass fields) declared in one module."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return params, fields


def _is_dataclass(decorator: ast.expr) -> bool:
    """Whether a decorator is `dataclass` or a call of it."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def count(text: str) -> tuple[int, int]:
    """(code lines, raw lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text))), text.count("\n")


def main() -> int:
    total_code = total_raw = params = fields = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, raw = count(text)
        total_code += code
        total_raw += raw
        print(f"{path.relative_to(SRC)} {code} {raw}")
        file_params, file_fields = settable(ast.parse(text))
        params += file_params
        fields += file_fields
    print(f"total {total_code} {total_raw}")
    print(f"settable {params} {fields}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
