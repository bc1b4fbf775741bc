"""Regenerate pinned.json: the expected outcome and cost of every pool job.

    python3 perfbench/pin.py

It re-pins every workload's pool. Each job runs once with the layer
probes installed, to count the interpreter runs that exhaust their step
budget, and REPEATS more times without them, to take the median wall
time. All runs of a job must give the same report, or pinning stops. The outcome fields are what every
benchmark run checks; `cost_s` and `loop_class` only cut the pool into
strata (see workloads.py), and like `exhausted_runs` and
`interpreter_steps` they are not checked.

Run it only when the benchmark's job pools change, and only at a commit
whose outcomes are known to be right: the benchmark afterwards accepts
exactly these outcomes.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import spans
import worker
import workloads

REPEATS = 2  # untraced runs per job for its median cost


def pin_job(job, targets: dict) -> dict:
    from minirepair.engine import EngineConfig, evolve

    unit, suite = targets[job.target]
    config = EngineConfig(**job.engine_kwargs())
    tracer = spans.Tracer()
    spans.install_layer_probes(tracer)
    tracer.job, tracer.active = job.key, True
    try:
        reference = worker.outcome_record(evolve(unit, suite, config))
    finally:
        tracer.active = False
        tracer.restore()
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        outcome = evolve(unit, suite, config)
        times.append(time.perf_counter() - started)
        if worker.outcome_record(outcome) != reference:
            raise SystemExit(f"{job.key}: outcome differs between runs")
    problems = worker.patch_problems(outcome, unit, suite, config.step_budget)
    if problems:
        raise SystemExit(f"{job.key}: {problems}")
    runs = [s.info for s in tracer.spans if s.name == "interpreter"]
    return {
        **reference,
        "cost_s": round(statistics.median(times), 4),
        "exhausted_runs": sum(1 for status, _ in runs if status == "budget_exhausted"),
        "interpreter_steps": sum(steps for _, steps in runs),
        "loop_class": loop_class(tracer.spans),
    }


def loop_class(recorded: list) -> str:
    """Which candidate programs ran a test into the step budget, as a short digest.

    Jobs with the same class spend their budget-exhausted steps on the
    same programs, so on loop-mut they cost the same; "" means none.
    """
    looping = sorted(
        {
            recorded[s.parent].info
            for s in recorded
            if s.name == "interpreter"
            and s.info[0] == "budget_exhausted"
            and s.parent is not None
            and recorded[s.parent].name == "engine.fitness"
        }
    )
    return hashlib.sha256("\n".join(looping).encode()).hexdigest()[:12] if looping else ""


def main() -> int:
    pinned = {}
    for name in workloads.WORKLOADS:
        targets = worker.load_targets(name)
        entries = {}
        for job in workloads.job_pool(name):
            entries[job.key] = pin_job(job, targets)
            print(name, job.key, entries[job.key], file=sys.stderr, flush=True)
        pinned[name] = entries
    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
