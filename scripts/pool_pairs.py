#!/usr/bin/env python3
"""Time full pool passes of two checkouts against each other, in pairs.

    python3 scripts/pool_pairs.py BASE CHANGE [--workload NAME ...] [--rounds N]

BASE and CHANGE are the roots of two checkouts of this repository. For
each workload, each round times one pass of each checkout, the base first
in even rounds and the change first in odd ones, so that a slow phase of
the host falls on both sides alike. Every pass runs in a fresh process
that imports `minirepair` from its checkout's `src/` and `perfbench/`,
runs one unmeasured warm-up pass and then the timed one, so that no side
keeps one hash seed and memory layout for the whole series. A pass runs
every job of the workload's pool (`workloads.job_pool`) once, in pool
order, in process, and is timed as a whole.

Every pass of each side digests its jobs' report digests (the pinned
`report_sha256` of `perfbench/worker.py`) into one; a round whose two
digests differ stops the run. At the end each workload prints the
change/base ratio of pass times: its median, its quartiles, and in how
many rounds the change was faster. Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def serve(checkout: Path, workload: str) -> None:
    """Run one unmeasured warm-up pass and one timed pass; print the timed
    pass's seconds and digest."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import worker  # puts the checkout's src/ first on the path
    import workloads

    from minirepair.engine import EngineConfig, evolve

    targets = worker.load_targets(workload)
    pool = workloads.job_pool(workload)
    for _ in range(2):
        digests = hashlib.sha256()
        started = time.perf_counter()
        for job in pool:
            unit, suite = targets[job.target]
            outcome = evolve(unit, suite, EngineConfig(**job.engine_kwargs()))
            digests.update(worker.report_digest(outcome).encode())
        seconds = time.perf_counter() - started
    print(json.dumps({"seconds": seconds, "digest": digests.hexdigest()}), flush=True)


def timed_pass(checkout: Path, workload: str) -> dict:
    """The timed pass of `checkout` from a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--serve", str(checkout), workload]
    process = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if process.returncode:
        raise SystemExit(f"a pass of {checkout} exited with {process.returncode}")
    return json.loads(process.stdout)


def pairs(base: Path, change: Path, workload: str, rounds: int) -> list[float]:
    """The change/base ratio of pass times in each round."""
    ratios = []
    for k in range(rounds):
        if k % 2 == 0:
            old = timed_pass(base, workload)
            new = timed_pass(change, workload)
        else:
            new = timed_pass(change, workload)
            old = timed_pass(base, workload)
        if old["digest"] != new["digest"]:
            raise SystemExit(f"{workload} round {k}: report digests differ")
        ratios.append(new["seconds"] / old["seconds"])
        print(f"{workload} round {k}: base {old['seconds']:.3f} s, change {new['seconds']:.3f} s", flush=True)
    return ratios


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--serve"]:
        serve(Path(args[1]), args[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", default=["loop-mut", "genprog-wide"])
    parser.add_argument("--rounds", type=int, default=30)
    options = parser.parse_args(args)
    summary = {}
    for workload in options.workload:
        ratios = pairs(options.base.resolve(), options.change.resolve(), workload, options.rounds)
        low, median, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        wins = sum(ratio < 1 for ratio in ratios)
        summary[workload] = {"median": median, "quartiles": [low, high], "wins": wins, "rounds": len(ratios)}
        print(f"{workload}: change/base {median:.3f} [{low:.3f}, {high:.3f}], faster in {wins} of {len(ratios)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
