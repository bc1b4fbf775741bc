#!/usr/bin/env python3
"""Measure how the benchmark worker's peak RSS grows with the jobs it has
run, and fit the bytes each job's record holds.

    python3 scripts/rss_per_job.py [CHECKOUT] [--workload NAME]

CHECKOUT is the root of a checkout of this repository (by default the one
holding this script); `minirepair` is imported from its `src/` and the
workloads from its `perfbench/`, as `scripts/call_counts.py` does. In this
one process it runs the passes that `worker.run_passes` runs for the
workload (`workloads.pass_jobs` over its strata, seed 0), each job through
`worker.run_job`, and keeps every record in one list, as `run_passes`
does, until 10,000 jobs have run. It prints `ru_maxrss` after 500, 2,500,
5,000 and 10,000 jobs and the least-squares slope of those four readings,
the bytes of peak RSS each further job adds. It stops at the first job
with a problem. Nothing is written.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
from itertools import chain, count, islice
from pathlib import Path

CHECKPOINTS = (500, 2_500, 5_000, 10_000)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", choices=("loop-mut", "genprog-wide"), default="genprog-wide")
    options = parser.parse_args(argv)
    sys.path.insert(0, str(options.checkout.resolve() / "perfbench"))
    import worker  # puts the checkout's src/ first on the path
    import workloads

    name = options.workload
    targets = worker.load_targets(name)
    pinned = workloads.load_pinned()[name]
    cut = workloads.strata(name, workloads.job_pool(name), pinned)
    passes = (workloads.pass_jobs(name, cut, workloads.DEFAULT_SEED, index) for index in count())
    records = []
    readings = []
    for job in islice(chain.from_iterable(passes), CHECKPOINTS[-1]):
        records.append(worker.run_job(job, targets, pinned))
        if records[-1]["problems"]:
            raise SystemExit(f"{name}: {records[-1]['problems'][0]}")
        if len(records) in CHECKPOINTS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            readings.append((len(records), peak_kb * 1024))
            print(f"{name}: {len(records):,} jobs, ru_maxrss {peak_kb / 1024:.1f} MB", flush=True)
    slope, _ = statistics.linear_regression(*zip(*readings))
    print(f"{name}: {slope:.0f} B of peak RSS per job, fitted over {len(readings)} readings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
