"""Code lines per module of src/bdar, in the working tree or at git revisions.

A code line is a line that holds part of a token other than a comment:
blank lines, comment-only lines and the lines of module, class and function
docstrings are not counted. A string that is not a docstring counts, and so
does every line of a statement that spans several lines. The count is the
same however the code is formatted between lines, so two trees can be
compared line for line. Uses the standard library only.

Run from the repo root:

    python3 tools/src_lines.py                    # the working tree
    python3 tools/src_lines.py --rev HEAD~1       # HEAD~1 against the working tree
    python3 tools/src_lines.py --rev A --rev B    # revision A against revision B

With one tree it prints each module's count and the total; with two, both
counts and the difference (second minus first) per module and in total.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/bdar"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the module source ``text``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def _git(*argv: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True, text=True,
                          check=True).stdout


def count_tree(rev: str | None = None) -> dict:
    """Code lines per module path under ``PACKAGE``: of the working tree, or
    of revision ``rev`` read through ``git show``."""
    if rev is None:
        paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / PACKAGE).rglob("*.py"))
        return {path: code_lines((ROOT / path).read_text()) for path in paths}
    paths = sorted(p for p in _git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE).split()
                   if p.endswith(".py"))
    return {path: code_lines(_git("show", f"{rev}:{path}")) for path in paths}


def table(counts: list, labels: list) -> str:
    """One row per module and a total row: each tree's count and, for two
    trees, the second minus the first (a module missing from a tree counts 0)."""
    paths = sorted(set().union(*counts))
    header = ["module", *labels] + (["diff"] if len(counts) == 2 else [])
    rows = []
    for path in paths + ["total"]:
        values = [sum(c.values()) if path == "total" else c.get(path, 0) for c in counts]
        if len(counts) == 2:
            values.append(f"{values[1] - values[0]:+d}")
        rows.append([path, *map(str, values)])
    width = [max(len(row[k]) for row in [header, *rows]) for k in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) if k == 0 else cell.rjust(w) for k, (cell, w) in enumerate(zip(row, width)))
        for row in [header, *rows]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", action="append", default=[],
                        help="a git revision; give once to compare it with the working tree, twice for two revisions")
    args = parser.parse_args(argv)
    if len(args.rev) > 2:
        parser.error("give --rev at most twice")
    revs = args.rev if len(args.rev) == 2 else args.rev + [None]  # None: the working tree
    labels = ["working tree" if rev is None else rev for rev in revs]
    print(table([count_tree(rev) for rev in revs], labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
