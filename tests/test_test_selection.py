"""Exact test skipping: a child's fitness run gives every test whose run on
its parent began no statement of the function the child edits the
parent's verdict and record without running it. Over random lineages of
several generations, every verdict and record, skipped or run, equals a
fresh run of that test."""

import pytest

import minirepair.engine as engine_module
from minirepair.engine import EngineConfig, NoFailingTest, UnlocalizableFault, evolve
from minirepair.minilang.testsuite import run_test
from minirepair.operators import MODES

from test_evolve_robustness import STEP_BUDGET
from test_validation import seeded_defect


def two_phase_order(suite, failing):
    first = set(failing)
    return [t for t in suite if t.name in first] + [t for t in suite if t.name not in first]


@pytest.mark.parametrize("fast", [False, True])
def test_skipped_and_run_verdicts_equal_fresh_runs_on_random_lineages(fast, monkeypatch):
    runs, ran = [], []
    real_fitness, real_run_test = engine_module.fitness, engine_module.run_test

    def recording(unit, suite, failing, budget, fast_, parent=None):
        run = real_fitness(unit, suite, failing, budget, fast_, parent)
        runs.append((unit, suite, failing, parent, run))
        return run

    def counting(unit, test, budget):
        ran.append(test.name)
        return real_run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "fitness", recording)
    monkeypatch.setattr(engine_module, "run_test", counting)
    for seed in range(30):
        case = seeded_defect(seed)
        if case is None:
            continue
        unit, suite = case
        for mode in MODES:
            config = EngineConfig(
                mode=mode,
                population_size=4,
                max_generations=5,
                step_budget=STEP_BUDGET,
                seed=seed,
                max_patches=99,
                fast_validation=fast,
            )
            try:
                evolve(unit, suite, config)
            except (NoFailingTest, UnlocalizableFault):
                pass
    verdicts = sum(len(run) for *_, run in runs)
    assert runs and all(parent is not None for *_, parent, _ in runs)
    assert max(len(parent.lineage) for *_, parent, _ in runs) >= 3
    skipped = verdicts - len(ran)
    assert len(ran) > 0 and skipped > verdicts / 4, (len(ran), skipped)
    for child, suite, failing, parent, run in runs:
        order = two_phase_order(suite, failing)
        reached = order if not fast else order[: len(run)]
        assert [name for name, _ in run] == [test.name for test in reached]
        if fast and len(run) < len(order):
            assert not run[-1][1]
        for i, test in enumerate(suite):
            record = run.records[i]
            if record is None:
                assert test not in reached
                continue
            passed, result = real_run_test(child, test, STEP_BUDGET)
            assert record == (passed, frozenset(sid.function for sid in result.executed))
            assert (test.name, passed) in run
