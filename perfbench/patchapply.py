"""A strict applier for the unified diffs that repair reports carry.

The benchmark re-checks every reported patch without trusting the
engine's own printed variant: it applies the diff to the canonical print
of the original program, re-parses the result and runs the full suite.
Context and removed lines must match exactly; anything else is an error.
"""

from __future__ import annotations

import re

_HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class PatchError(Exception):
    """The diff is malformed or does not apply to the given text."""


def apply_unified_diff(original: str, diff: str) -> str:
    """Return `original` with every hunk of `diff` applied, in order."""
    source = original.splitlines(keepends=True)
    lines = diff.splitlines(keepends=True)
    out: list[str] = []
    cursor = 0  # next unconsumed index into source
    i = 0
    while i < len(lines) and not lines[i].startswith("@@"):
        if not lines[i].startswith(("--- ", "+++ ")):
            raise PatchError(f"unexpected header line {lines[i]!r}")
        i += 1
    if i == len(lines):
        raise PatchError("diff has no hunks")
    while i < len(lines):
        match = _HUNK.match(lines[i])
        if match is None:
            raise PatchError(f"expected a hunk header, got {lines[i]!r}")
        old_start, old_len = int(match[1]), int(match[2] or 1)
        new_len = int(match[4] or 1)
        # A zero-length range names the line *before* the hunk.
        start = old_start if old_len == 0 else old_start - 1
        if start < cursor or start > len(source):
            raise PatchError(f"hunk at line {old_start} is out of order or out of range")
        out.extend(source[cursor:start])
        cursor = start
        i += 1
        seen_old = seen_new = 0
        while seen_old < old_len or seen_new < new_len:
            if i == len(lines):
                raise PatchError("hunk is shorter than its header says")
            tag, text = lines[i][:1], lines[i][1:]
            if tag in (" ", "-"):
                if cursor >= len(source) or source[cursor] != text:
                    raise PatchError(f"line {cursor + 1} does not match the diff")
                cursor += 1
                seen_old += 1
            if tag in (" ", "+"):
                out.append(text)
                seen_new += 1
            if tag not in (" ", "-", "+"):
                raise PatchError(f"unexpected hunk line {lines[i]!r}")
            i += 1
        if seen_old != old_len or seen_new != new_len:
            raise PatchError("hunk is longer than its header says")
    out.extend(source[cursor:])
    return "".join(out)
