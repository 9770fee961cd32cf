"""Line counts of the package's modules: the parent commit against the working tree.

Usage::

    python3 tools/code_lines.py
    python3 tools/code_lines.py --parent HEAD~1

Prints, for each module of ``src/snlm`` and in total, its lines and its code
lines: the lines that hold a token of code, so neither blank lines, comment
lines nor docstrings (the string that opens a module, class or function).
A string that is not a docstring is code, each of its lines.

With ``--parent``, the parent commit is exported with ``git archive``, as
``tools/bench_pairs.py`` does, and its lines and code lines are printed
beside, with the change in code lines. A module that only one side has
counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
PACKAGE = Path("src") / "snlm"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def package_counts(tree: Path) -> dict:
    """{module file name: (lines, code lines)} of the package in ``tree``."""
    return {path.name: count(path) for path in sorted((tree / PACKAGE).glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit to compare against")
    args = parser.parse_args(argv)

    sides = [package_counts(ROOT)]
    header = f"{'module':<16}{'lines':>8}{'code':>8}"
    if args.parent:
        sys.path.insert(0, str(TOOLS))
        from bench_pairs import export_commit
        with tempfile.TemporaryDirectory() as tmp:
            print(f"parent {export_commit(args.parent, Path(tmp))}")
            sides.append(package_counts(Path(tmp) / "tree"))
        header += f"{'parent lines':>14}{'parent code':>13}{'code change':>13}"
    rows = {name: [side.get(name, (0, 0)) for side in sides]
            for name in sorted(set().union(*sides))}
    rows["total"] = [tuple(map(sum, zip(*side.values()))) for side in sides]
    print(header)
    for name, row in rows.items():
        line = f"{name:<16}{row[0][0]:>8,}{row[0][1]:>8,}"
        if args.parent:
            line += f"{row[1][0]:>14,}{row[1][1]:>13,}{row[0][1] - row[1][1]:>+13,}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
