"""A search does not depend on string hashing. The same corpus searches run
in two interpreters whose `PYTHONHASHSEED` differ, so that every set and
dict of names iterates in another order, and their reports are equal."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each corpus case searched in every mode (jgenprog with global scope)
# over several generations, so that pools, skips and test skipping all take
# part; then every job of the benchmark's pools, whose `genprog-wide` draws
# ingredients from many functions. Prints one report digest per search.
SEARCHES = """
from minirepair.engine import EngineConfig, evolve
from minirepair.operators import MODES
import worker, workloads
from samples import corpus_case_names, load_corpus_case

for name in corpus_case_names():
    unit, suite, meta = load_corpus_case(name)
    for mode in MODES:
        config = EngineConfig(
            mode=mode, ingredient_scope="global", population_size=10, max_generations=4,
            step_budget=2000, seed=meta["seed"], max_patches=1000,
        )
        print(name, mode, worker.report_digest(evolve(unit, suite, config)))
for workload in workloads.WORKLOADS:
    targets = worker.load_targets(workload)
    for job in workloads.job_pool(workload):
        outcome = evolve(*targets[job.target], EngineConfig(**job.engine_kwargs()))
        print(workload, job.key, worker.report_digest(outcome))
"""


def digests_under(hash_seed: str) -> list[str]:
    paths = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", SEARCHES], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.splitlines()


def test_reports_do_not_depend_on_the_hash_seed():
    first, second = digests_under("0"), digests_under("12345")
    assert len(first) == 3 * 13 + 72 + 48 + 13
    assert first == second
