#!/usr/bin/env python3
"""Count the Python calls, or the executed bytecodes, of one pool pass: a
work count that timing noise cannot hide.

    python3 scripts/call_counts.py [CHECKOUT] [--calls NAME ...] [--opcodes]

CHECKOUT is the root of a checkout of this repository (by default the one
holding this script); `minirepair` is imported from its `src/` and the
workloads from its `perfbench/`, as `scripts/pool_pairs.py` does. For
each of `loop-mut` and `genprog-wide`, in this one process, it runs one
unmeasured warm-up pass of the pool (every job of `workloads.job_pool`,
in pool order), then two passes under cProfile, and prints the calls of
a pass with the sha256 of its jobs' report digests (the pinned
`report_sha256` of `perfbench/worker.py`). A run is deterministic, so two
runs of one checkout print the same counts, and two checkouts whose
digests agree did the same searches. Nothing is written.

With `--calls`, it also prints the calls a pass makes of each function
NAME, summed over the code objects of that name: a Python function by its
qualified name (`run_test`, `fitness`, `SourceUnit.function`), a builtin
method as TYPE.METHOD (`set.isdisjoint`) and a builtin function by its
name (`isinstance`, `sys.setrecursionlimit`).

A pass's calls are summed over every code object the profiler saw
(`Profile.getstats()`), not read from `pstats`: pstats keys a function by
file, line and name, and of the code objects that share them, such as the
`__init__` that `dataclasses` generates for each class, it keeps only the
one the profiler lists last, an order that follows memory addresses. Its
`total_calls` therefore moved between runs with equal reports.

With `--opcodes`, the two passes are traced instead of profiled, and it
prints the bytecodes a pass executes, counted with `sys.settrace` and
`f_trace_opcodes`; every Python frame counts, the generated hot loops
included, and `--calls` prints the bytecodes each Python function NAME
executes. A traced pass takes seconds, not the tenths of an untraced one.
Work done in C (building sets, sorting, `str.join`) counts only as the
bytecode that calls it, so the count complements timing and does not
replace it.

Should the two measured passes differ in their total, it prints both
totals and each function whose count differs, and exits 1, so that a
count that is not deterministic names where it is not.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import re
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("loop-mut", "genprog-wide")


def call_counts(profile: cProfile.Profile) -> Counter:
    """The calls of each function of a profile, by its code object (a
    builtin by its name); equal code objects are summed."""
    counts: Counter = Counter()
    for entry in profile.getstats():
        counts[entry.code] += entry.callcount
    return counts


def opcode_counts(run, *args) -> tuple[Counter, object]:
    """The bytecodes that `run(*args)` executes, by code object, and what
    it returns. Tracing starts in the frames it calls."""
    counts: Counter = Counter()

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            counts[frame.f_code] += 1
        return trace

    sys.settrace(trace)
    try:
        result = run(*args)
    finally:
        sys.settrace(None)
    return counts, result


def describe(code) -> str:
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_firstlineno}({getattr(code, 'co_qualname', code.co_name)})"


def name_of(code) -> str:
    """The name `--calls` matches: a code object's qualified name, and for a
    builtin, TYPE.METHOD or the function's name without `builtins.`."""
    if not isinstance(code, str):
        return getattr(code, "co_qualname", code.co_name)
    method = re.fullmatch(r"<method '(.+)' of '(.+)' objects>", code)
    if method:
        return f"{method[2]}.{method[1]}"
    function = re.fullmatch(r"<built-in method (.+)>", code)
    if function:
        return function[1].removeprefix("builtins.")
    return code


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the Python calls of one pool pass.")
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--calls", nargs="+", default=[], metavar="NAME")
    parser.add_argument("--opcodes", action="store_true", help="count executed bytecodes instead")
    args = parser.parse_args(argv)
    unit = "bytecodes" if args.opcodes else "calls"
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "perfbench"))
    import worker  # puts the checkout's src/ first on the path
    import workloads

    from minirepair.engine import EngineConfig, evolve

    def outcomes(targets, pool) -> list:
        return [evolve(*targets[job.target], EngineConfig(**job.engine_kwargs())) for job in pool]

    def digest(results) -> str:
        digests = hashlib.sha256()
        for outcome in results:
            digests.update(worker.report_digest(outcome).encode())
        return digests.hexdigest()

    status = 0
    for name in WORKLOADS:
        targets = worker.load_targets(name)
        pool = workloads.job_pool(name)
        warm = digest(outcomes(targets, pool))
        counts = []
        for _ in range(2):
            if args.opcodes:
                count, results = opcode_counts(outcomes, targets, pool)
            else:
                profile = cProfile.Profile()
                results = profile.runcall(outcomes, targets, pool)
                count = call_counts(profile)
            if digest(results) != warm:
                raise SystemExit(f"{name}: a measured pass's reports differ from the warm-up's")
            counts.append(count)
        first, second = (sum(count.values()) for count in counts)
        if first == second:
            print(f"{name}: {first:,} {unit} in one pass of {len(pool)} jobs, reports {warm[:12]}")
            by_name: Counter = Counter()
            for code, calls in counts[0].items():
                by_name[name_of(code)] += calls
            for wanted in args.calls:
                print(f"  {wanted}: {by_name[wanted]:,}")
            continue
        status = 1
        print(f"{name}: the two passes made {first:,} and {second:,} {unit}, reports {warm[:12]}")
        for code in sorted(counts[0].keys() | counts[1].keys(), key=describe):
            before, after = counts[0][code], counts[1][code]
            if before != after:
                print(f"  {describe(code)}: {before:,} -> {after:,}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
