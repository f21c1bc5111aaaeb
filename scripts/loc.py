"""Line counts of the ambcest package: total lines and code-only lines per module.

    python3 scripts/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/ambcest of the checkout this script sits in.  Code-only
lines are the lines that hold a token other than a comment or a docstring, so blank
lines, comment lines and docstring lines do not count; a line with code and a trailing
comment does.  A docstring is the string literal that opens a module, class or
function body.  The last line gives the package totals.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

# tokens that are not code on their own
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def count_package(path: str) -> dict[str, tuple[int, int]]:
    """{module file name: (total, code-only)} for every .py file directly under path."""
    counts = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as f:
                counts[name] = count(f.read())
    return counts


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default=os.path.join(os.path.dirname(here), "src", "ambcest"))
    args = ap.parse_args(argv)
    counts = count_package(args.package)
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for name, (total, code) in counts.items():
        print(f"{name:<16}{total:>7}{code:>7}")
    print(f"{'package':<16}{sum(t for t, _ in counts.values()):>7}{sum(c for _, c in counts.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
