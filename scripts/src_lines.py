#!/usr/bin/env python3
"""Count the lines of `src/` by kind.

    python3 scripts/src_lines.py [CHECKOUT ...]

CHECKOUT is the root of a checkout of this repository (by default the one
holding this script). For each checkout it prints, for every `.py` file
under `src/` and in total, its lines and how many of them are code,
docstring, comment and blank. Nothing is written.

Each physical line gets one kind, read from `tokenize`: a line holding a
token of a statement that is not a bare string is code; else a line
holding a bare string statement (a docstring), blank lines inside it
included, is docstring; else a line holding a comment is comment; else it
is blank. So a code line with a trailing comment is code, and the four
kinds sum to the file's line count.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(text: str) -> list[str]:
    """The kind of each physical line of Python source `text`."""
    rank = [len(KINDS) - 1] * len(text.splitlines())

    def mark(token, kind: str) -> None:
        for line in range(token.start[0], token.end[0] + 1):
            rank[line - 1] = min(rank[line - 1], KINDS.index(kind))

    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            mark(token, "comment")
        elif token.type not in _LAYOUT:
            statement.append(token)
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            bare_string = all(t.type == tokenize.STRING for t in statement)
            for t in statement:
                mark(t, "docstring" if bare_string else "code")
            statement = []
    return [KINDS[r] for r in rank]


def count(checkout: Path) -> dict[str, dict[str, int]]:
    """Line counts by kind of each `.py` file under the checkout's `src/`."""
    counts = {}
    for path in sorted((checkout / "src").rglob("*.py")):
        kinds = line_kinds(path.read_text(encoding="utf-8"))
        counts[str(path.relative_to(checkout))] = {kind: kinds.count(kind) for kind in KINDS}
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of src/ by kind.")
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parent.parent])
    args = parser.parse_args(argv)
    for checkout in args.checkouts:
        counts = count(checkout.resolve())
        total = {kind: sum(c[kind] for c in counts.values()) for kind in KINDS}
        print(f"{checkout}:")
        print(f"  {'lines':>6} " + " ".join(f"{kind:>9}" for kind in KINDS))
        for name, c in [*counts.items(), ("total", total)]:
            print(f"  {sum(c.values()):>6,} " + " ".join(f"{c[kind]:>9,}" for kind in KINDS) + f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
