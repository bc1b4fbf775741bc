"""Reports stay byte-identical: every job of the benchmark's `loop-mut`,
`genprog-wide` and `corpus-default` pools reproduces the report digest
pinned for it in `perfbench/pinned.json` (the report without its wall
time, digested by `perfbench/worker.py`). Reads `perfbench/`, changes
nothing there."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

from minirepair.engine import EngineConfig, evolve  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_job_reproduces_its_pinned_report(workload):
    pinned = workloads.load_pinned()[workload]
    targets = worker.load_targets(workload)
    changed = []
    for job in workloads.job_pool(workload):
        unit, suite = targets[job.target]
        outcome = evolve(unit, suite, EngineConfig(**job.engine_kwargs()))
        if worker.report_digest(outcome) != pinned[job.key]["report_sha256"]:
            changed.append(job.key)
    assert changed == []
