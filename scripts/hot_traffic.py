#!/usr/bin/env python3
"""Count the hot loops that the benchmark's traffic builds, and digest them.

    python3 scripts/hot_traffic.py [CHECKOUT]

CHECKOUT is the root of a checkout of this repository (by default the one
holding this script); `minirepair` is imported from its `src/` and the
workloads from its `perfbench/`, as `scripts/pool_pairs.py` does. Five
traffics run in this one process, one after the other:

  - one pass of each pool: `loop-mut`, `genprog-wide`, `corpus-default`;
  - `multi-gen-loop`: the three loop cases x engine seeds 0-3,
    jmutrepair, population 10 x 20 generations, `max_patches` 1,000;
  - `stress`: `double_sum_missing_add`, jgenprog, global scope,
    population 20 x 100 generations, step budget 2,000, `max_patches`
    1,000, seed 0.

Per traffic it prints the hot loops built, the calls of built hot loops,
the loops the emitter declined by reason, the count and sha256 of the
texts the emitter wrote (in build order), and the sha256 of its jobs'
report digests (the pinned `report_sha256` of `perfbench/worker.py`);
the last two rows digest all five. Two checkouts whose rows agree run the
same generated code and give the same reports. Nothing is written.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

MULTI_GEN_LOOP = {"mode": "jmutrepair", "population_size": 10, "max_generations": 20, "max_patches": 1000}
STRESS_CASE = "double_sum_missing_add"
STRESS = {
    "mode": "jgenprog",
    "ingredient_scope": "global",
    "population_size": 20,
    "max_generations": 100,
    "step_budget": 2000,
    "max_patches": 1000,
    "seed": 0,
}


class Counts:
    """What the wrapped emitter and builder saw during one traffic."""

    def __init__(self):
        self.builds = self.calls = 0
        self.declines: Counter = Counter()
        self.texts = hashlib.sha256()
        self.ntexts = 0
        self.reports = hashlib.sha256()


def traffics(worker, workloads, config):
    """(name, [(unit, suite, EngineConfig), ...]) for each traffic."""
    for name in ("loop-mut", "genprog-wide", "corpus-default"):
        targets = worker.load_targets(name)
        jobs = [(*targets[job.target], config(**job.engine_kwargs())) for job in workloads.job_pool(name)]
        yield name, jobs
    loops = worker.load_targets("loop-mut")
    cases = [(case, seed) for case in workloads.LOOP_CASES for seed in range(4)]
    yield "multi-gen-loop", [(*loops[case], config(**MULTI_GEN_LOOP, seed=seed)) for case, seed in cases]
    yield "stress", [(*worker.load_targets("corpus-default")[STRESS_CASE], config(**STRESS))]


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(checkout / "perfbench"))
    import worker  # puts the checkout's src/ first on the path
    import workloads

    from minirepair.engine import EngineConfig, evolve
    from minirepair.minilang import hotloop, interpreter

    counts, texts = Counts(), hashlib.sha256()
    write, build = hotloop.loop_source, interpreter._hot_loop

    def writing(*args):
        try:
            text = write(*args)
        except hotloop.Declined as declined:
            counts.declines[str(declined)] += 1
            raise
        counts.texts.update(text.encode())
        texts.update(text.encode())
        counts.ntexts += 1
        return text

    def building(*args):
        hot = build(*args)
        if hot is None:
            return None
        counts.builds += 1

        def counted(*call):
            counts.calls += 1
            return hot(*call)

        return counted

    hotloop.loop_source, interpreter._hot_loop = writing, building
    everything = hashlib.sha256()
    print("traffic          builds  calls  texts  texts_sha256  reports_sha256  declines")
    for name, jobs in traffics(worker, workloads, EngineConfig):
        counts = Counts()
        for unit, suite, config in jobs:
            counts.reports.update(worker.report_digest(evolve(unit, suite, config)).encode())
        everything.update(counts.reports.hexdigest().encode())
        declines = ", ".join(f"{reason} x{n}" for reason, n in sorted(counts.declines.items())) or "-"
        print(
            f"{name:<16} {counts.builds:>6} {counts.calls:>6} {counts.ntexts:>6}  "
            f"{counts.texts.hexdigest()[:12]}  {counts.reports.hexdigest()[:14]}  {declines}",
            flush=True,
        )
    print(f"all texts: {texts.hexdigest()}")
    print(f"all reports: {everything.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
