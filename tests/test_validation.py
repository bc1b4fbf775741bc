import random

import pytest

import minirepair.engine as engine_module
from minirepair.engine import EngineConfig, NoFailingTest, UnlocalizableFault, evolve, fitness
from minirepair.minilang import parse
from minirepair.minilang.testsuite import run_test
from minirepair.operators import MODES, PatchSkip, apply_patch_op
from minirepair.validation import UnknownTestName, validate

from randprog import random_unit
from test_cow_variants import every_op
from test_evolve_robustness import STEP_BUDGET, suite_from_runs


def view(candidate, suite, failing, fast=False):
    """Validate a candidate from its own fitness run, as the engine does."""
    return validate(fitness(candidate, suite, sorted(failing), 1000, fast), failing)


def test_valid_repair(correct_max, max_suite):
    result = view(correct_max, max_suite, {"t1"})
    assert result.phase1 == (("t1", True),)
    assert result.phase2 == (("t2", True),)
    assert result.valid


def test_degenerate_candidate_fails_regression(max_suite):
    hardcoded = parse("fn max(a: int, b: int) -> int { return 5; }")
    result = view(hardcoded, max_suite, {"t1"})
    assert result.phase1 == (("t1", True),)
    assert result.phase2 == (("t2", False),)
    assert not result.valid


def test_unrepaired_candidate_skips_phase2(buggy_max, max_suite):
    result = view(buggy_max, max_suite, {"t1"})
    assert result.phase1 == (("t1", False),)
    assert result.phase2 == ()
    assert not result.valid


def test_no_regression_test_runs_after_phase1_failure(buggy_max, max_suite, monkeypatch):
    executed = []
    real_run_test = engine_module.run_test

    def counting_run_test(unit, test, budget):
        executed.append(test.name)
        return real_run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "run_test", counting_run_test)
    result = view(buggy_max, max_suite, {"t1"}, fast=True)
    assert executed == ["t1"]  # t2 (previously passing) never executed
    assert result.phase2 == () and not result.valid


def test_validation_reads_verdicts_without_running_a_test():
    verdicts = (("t3", True), ("t1", True), ("t2", False))
    result = validate(verdicts, ["t3", "t1"])
    assert result.phase1 == (("t3", True), ("t1", True))
    assert result.phase2 == (("t2", False),)
    assert not result.valid


def test_a_run_cut_in_phase1_is_discarded_not_unknown():
    # a fast run stopped at t1, before the other originally failing test ran
    result = validate((("t1", False),), {"t1", "t3"})
    assert result.phase1 == (("t1", False),)
    assert result.phase2 == () and not result.valid


def test_unknown_test_name(buggy_max, max_suite):
    with pytest.raises(UnknownTestName):
        view(buggy_max, max_suite, {"nope"})


def test_empty_failing_set_rejected(buggy_max, max_suite):
    with pytest.raises(ValueError):
        validate(fitness(buggy_max, max_suite, ["t1"], 1000), set())


def test_validity_matches_zero_fitness(buggy_max, correct_max, max_suite):
    hardcoded = parse("fn max(a: int, b: int) -> int { return 5; }")
    for candidate in (buggy_max, correct_max, hardcoded):
        for fast in (False, True):
            verdicts = fitness(candidate, max_suite, ["t1"], 1000, fast)
            zero = all(passed for _, passed in verdicts)
            assert validate(verdicts, {"t1"}).valid == zero


def seeded_defect(seed):
    """A jmutrepair mutant of a random unit that fails a test of a suite
    expecting what the unit returns, or None when no mutant fails one."""
    original = random_unit(seed)
    rng = random.Random(seed)
    suite = suite_from_runs(original, rng, flip_first=False)
    ops = list(every_op(original, "jmutrepair", "local"))
    rng.shuffle(ops)
    for op in ops[:10]:
        try:
            mutant, _ = apply_patch_op(original, op, rng)
        except PatchSkip:
            continue
        if not all(run_test(mutant, test, STEP_BUDGET)[0] for test in suite):
            return mutant, suite
    return None


@pytest.mark.parametrize("fast", [False, True])
def test_view_agrees_with_fresh_runs_on_random_lineages(fast, monkeypatch):
    """Every zero-fitness child of random searches: a fresh run of each
    test, in a separate `run_test` call, agrees with the view's verdicts."""
    runs = []
    real_fitness = engine_module.fitness

    def recording(unit, suite, failing, budget, fast_):
        verdicts = real_fitness(unit, suite, failing, budget, fast_)
        runs.append((unit, suite, failing, verdicts))
        return verdicts

    monkeypatch.setattr(engine_module, "fitness", recording)
    for seed in range(40):
        case = seeded_defect(seed)
        if case is None:
            continue
        unit, suite = case
        for mode in MODES:
            config = EngineConfig(
                mode=mode,
                population_size=4,
                max_generations=4,
                step_budget=STEP_BUDGET,
                seed=seed,
                max_patches=99,
                fast_validation=fast,
            )
            try:
                evolve(unit, suite, config)
            except (NoFailingTest, UnlocalizableFault):
                pass
    zero = [run for run in runs if all(passed for _, passed in run[3])]
    assert len(zero) >= 20
    for child, suite, failing, verdicts in zero:
        result = validate(verdicts, failing)
        by_name = {test.name: test for test in suite}
        fresh = tuple(
            (name, run_test(child, by_name[name], STEP_BUDGET)[0])
            for name, _ in result.phase1 + result.phase2
        )
        assert fresh == result.phase1 + result.phase2
        assert sorted(name for name, _ in fresh) == sorted(by_name)
        assert result.valid
