"""Count the package's code lines and public names.

Run from anywhere:

    python3 tests/code_size.py

A code line is a line that holds a token other than a comment, outside
the module, class and function docstrings; blank lines, comment lines
and docstring lines do not count.  Every line of a multi-line
statement that holds a token counts, and so does every line a
multi-line string (other than a docstring) spans.  The script prints
the count for each module under ``src/rindler_resonance`` beside the
length of the module's ``__all__``, its share of the package API
(``__init__.py`` shows the whole API), then the total and the size of
``rindler_resonance.__all__``.
"""

import ast
import importlib
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "rindler_resonance"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    sys.path.insert(0, str(SRC))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        name = "rindler_resonance" if path.stem == "__init__" else f"rindler_resonance.{path.stem}"
        names = len(getattr(importlib.import_module(name), "__all__", ()))
        print(f"{path.name:14s} {count:5d} {names:5d}")
    print(f"{'total':14s} {total:5d}")
    import rindler_resonance

    print(f"{'__all__':14s} {len(rindler_resonance.__all__):5d}")


if __name__ == "__main__":
    main()
