"""The benchmark's workloads: their inputs, their job pools and how a seed picks jobs.

A job is one `evolve()` call: a target program with its suite, and an
engine configuration. Every job that any seed can select is listed in
`pinned.json` with its expected outcome, so any run on any seed is
checked against pinned answers.

Workloads (closed loop, one job at a time, one process, no threads):

loop-mut
    jmutrepair on the three corpus loop cases with the default step
    budget of 100,000. Nearly all its time goes to candidates that loop
    until the budget runs out, so it is interpreter-bound and measures
    per-step throughput.
genprog-wide
    jgenprog with global ingredient scope and step budget 2000 on one
    unit made by concatenating the 13 corpus programs (14 functions, 54
    tests). The corpus programs have at most 13 lines each; copy-on-write
    variants and test skipping only pay off across functions, so this is
    where they show. It is operator-bound (harvest, copy, re-check) and
    runs many short tests, so it measures per-call interpreter overhead.
corpus-default
    Exactly what `repair --corpus` runs: each case's declared modes,
    `meta.json` seed and overrides, `max_patches` 1. It is what a user
    gets with the defaults: set-up, fault localization, one generation,
    one validation and one diff per case.

The seed picks jobs by stratified sampling: the pool is cut into strata
of jobs that do the same or similar pinned work (see `strata`), and every
pass takes one job from each. So two seeds run different engine seeds
with the same cost profile, and the spread between runs measures the
code rather than the draw. corpus-default always uses the `meta.json`
seeds; the seed only orders its cases.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "corpus"
PINNED = HERE / "pinned.json"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1009  # reserved for confirming claims; never used while tuning a change

WORKLOADS = ("loop-mut", "genprog-wide", "corpus-default")
LOOP_CASES = ("sum_all_subtract", "count_odd_parity", "find_first_neg_boundary")
MERGED = "genprog_wide"
MANY_PATCHES = 1000  # never reached, so every job runs all its generations

LOOP_POOL = 24  # engine seeds per loop case
LOOP_CONFIG = {"mode": "jmutrepair", "population_size": 2, "max_generations": 1}
WIDE_POOL = 48
WIDE_CONFIG = {
    "mode": "jgenprog",
    "population_size": 10,
    "max_generations": 1,
    "ingredient_scope": "global",
    "step_budget": 2000,
}
WIDE_STRATUM = 3  # genprog-wide: pool jobs per stratum, adjacent in pinned cost


@dataclass(frozen=True)
class Job:
    key: str  # unique within the workload; the pinned.json key
    target: str  # program/suite the job repairs
    config: tuple  # EngineConfig keyword arguments, as sorted items
    expect_repair: bool | None = None  # the corpus's declared answer, if any

    def engine_kwargs(self) -> dict:
        return dict(self.config)


def _config(**kwargs) -> tuple:
    return tuple(sorted(kwargs.items()))


def corpus_cases() -> list[Path]:
    return sorted(d for d in CORPUS.iterdir() if d.is_dir() and (d / "program.ml").exists())


def merged_unit_sources() -> tuple[str, str]:
    """(program text, suite JSON) of every corpus case in one unit.

    Programs are concatenated in case-name order; each test is renamed
    `<case>/<test>` so the merged suite keeps unique names.
    """
    programs, tests = [], []
    for case_dir in corpus_cases():
        programs.append((case_dir / "program.ml").read_text(encoding="utf-8").strip())
        suite = json.loads((case_dir / "tests.json").read_text(encoding="utf-8"))
        for test in suite["tests"]:
            tests.append({**test, "name": f"{case_dir.name}/{test['name']}"})
    return "\n\n".join(programs) + "\n", json.dumps({"tests": tests}, indent=1) + "\n"


def target_sources(workload: str) -> dict[str, tuple[str, str]]:
    """Target name -> (program text, suite JSON) for one workload."""
    if workload == "genprog-wide":
        return {MERGED: merged_unit_sources()}
    names = LOOP_CASES if workload == "loop-mut" else [d.name for d in corpus_cases()]
    return {
        name: (
            (CORPUS / name / "program.ml").read_text(encoding="utf-8"),
            (CORPUS / name / "tests.json").read_text(encoding="utf-8"),
        )
        for name in names
    }


def job_pool(workload: str) -> list[Job]:
    """Every job the workload can run, in a fixed order."""
    if workload == "loop-mut":
        return [
            Job(f"{case}/{seed}", case, _config(**LOOP_CONFIG, seed=seed, max_patches=MANY_PATCHES))
            for case in LOOP_CASES
            for seed in range(LOOP_POOL)
        ]
    if workload == "genprog-wide":
        return [
            Job(f"{MERGED}/{seed}", MERGED, _config(**WIDE_CONFIG, seed=seed, max_patches=MANY_PATCHES))
            for seed in range(WIDE_POOL)
        ]
    if workload == "corpus-default":
        jobs = []
        for case_dir in corpus_cases():
            meta = json.loads((case_dir / "meta.json").read_text(encoding="utf-8"))
            for mode in meta["modes"]:
                config = {**meta.get("config", {}), "mode": mode, "seed": meta["seed"], "max_patches": 1}
                jobs.append(
                    Job(f"{case_dir.name}/{mode}", case_dir.name, _config(**config), bool(meta.get("expect_repair", True)))
                )
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def strata(workload: str, pool: list[Job], pinned: dict) -> list[list[Job]]:
    """The pool cut into strata; a pass runs one job of each.

    loop-mut measures searches that run candidates into the step budget
    and spends its time on exactly those candidates, so its strata are the
    groups of jobs that loop on the same candidates as often (the pinned
    `loop_class` and `exhausted_runs`; jobs in a group do the same work).
    Jobs that loop on nothing (about 1 ms each) and groups of one job are
    not sampled.
    genprog-wide's costs vary smoothly, so its pool is sorted by pinned
    cost and cut into runs of WIDE_STRATUM jobs.
    """
    if workload == "corpus-default":
        return [[job] for job in pool]
    result = []
    for target in sorted({job.target for job in pool}):
        ranked = sorted(
            (job for job in pool if job.target == target),
            key=lambda j: (pinned[j.key]["cost_s"], j.key),
        )
        if workload == "genprog-wide":
            result += [ranked[i : i + WIDE_STRATUM] for i in range(0, len(ranked), WIDE_STRATUM)]
            continue
        classes: dict[tuple, list[Job]] = {}
        for job in ranked:
            entry = pinned[job.key]
            classes.setdefault((entry["loop_class"], entry["exhausted_runs"]), []).append(job)
        result += [members for (cls, _), members in sorted(classes.items()) if cls and len(members) > 1]
    return result


def pass_jobs(workload: str, cut: list[list[Job]], seed: int, index: int) -> list[Job]:
    """The jobs of pass `index` for `seed`: one per stratum, in shuffled order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = [rng.choice(members) for members in cut]
    rng.shuffle(jobs)
    return jobs


def load_pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))
