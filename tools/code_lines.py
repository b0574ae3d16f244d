"""Count the code lines of a Python package: non-blank lines outside
docstrings and comment-only lines.

A docstring is the first-statement string of a module, class or function,
spanning the lines of its `ast` node; a comment-only line is one whose only
tokens (found with `tokenize`) are a comment and the line end.  Prints one
count per module and the total.

    python tools/code_lines.py [package_dir]      # default: src/qpkam
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _comment_lines(source: str) -> set:
    """Lines that hold a comment and no code token."""
    comments, code = set(), set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return comments - code


def code_lines(path: Path) -> int:
    source = path.read_text()
    dropped = _docstring_lines(ast.parse(source)) | _comment_lines(source)
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and i not in dropped)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qpkam"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:>12} {count:>6}")
    print(f"{'total':>12} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
