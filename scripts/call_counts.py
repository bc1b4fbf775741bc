#!/usr/bin/env python3
"""Count the Python calls of one pool pass, a work count that timing noise
cannot hide.

    python3 scripts/call_counts.py [CHECKOUT]

CHECKOUT is the root of a checkout of this repository (by default the one
holding this script); `minirepair` is imported from its `src/` and the
workloads from its `perfbench/`, as `scripts/pool_pairs.py` does. For
each of `loop-mut` and `genprog-wide`, in this one process, it runs one
unmeasured warm-up pass of the pool (every job of `workloads.job_pool`,
in pool order), then one pass under cProfile, and prints cProfile's
`total_calls` of that pass with the sha256 of its jobs' report digests
(the pinned `report_sha256` of `perfbench/worker.py`). A run is
deterministic, so two runs of one checkout print the same counts, and
two checkouts whose digests agree did the same searches. Nothing is
written.
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
import sys
from pathlib import Path

WORKLOADS = ("loop-mut", "genprog-wide")


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
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

    for name in WORKLOADS:
        targets = worker.load_targets(name)
        pool = workloads.job_pool(name)
        warm = digest(outcomes(targets, pool))
        profile = cProfile.Profile()
        if digest(profile.runcall(outcomes, targets, pool)) != warm:
            raise SystemExit(f"{name}: the profiled pass's reports differ from the warm-up's")
        calls = pstats.Stats(profile).total_calls
        print(f"{name}: {calls:,} calls in one pass of {len(pool)} jobs, reports {warm[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
