"""Exact test skipping: a child's fitness run gives every test whose run on
its parent began no statement of the function the child edits the
parent's verdict and record without running it. Over random lineages of
several generations, the tests each fitness call runs are exactly those
whose parent record is missing or began a statement of an unshared
function, and every verdict and record, skipped or run, equals a fresh
run of that test, also for a run that traps on entering the edited
function. A parent's run at another step budget stands in for no test."""

import pytest

import minirepair.engine as engine_module
from minirepair.engine import EngineConfig, NoFailingTest, UnlocalizableFault, evolve
from minirepair.minilang import SourceUnit, StatementId, parse, testsuite
from minirepair.minilang.testsuite import run_test
from minirepair.operators import MODES

from test_evolve_robustness import STEP_BUDGET
from test_validation import seeded_defect


def two_phase_order(suite, failing):
    first = set(failing)
    return [t for t in suite if t.name in first] + [t for t in suite if t.name not in first]


def selected(child, suite, parent, reached):
    """The names of the `reached` tests, in run order, whose run on the
    parent left no record or began a statement of a function the child
    does not share."""
    unshared = {fn.name for fn, old in zip(child.functions, parent.ast.functions) if fn is not old}
    position = {test.name: i for i, test in enumerate(suite)}
    names = []
    for test in reached:
        record = parent.run.records[position[test.name]]
        if record is None or not unshared.isdisjoint(sid.function for sid in record[1]):
            names.append(test.name)
    return names


@pytest.mark.parametrize("fast", [False, True])
def test_skipped_and_run_verdicts_equal_fresh_runs_on_random_lineages(fast, monkeypatch):
    runs = []
    ran: list[str] = []
    real_fitness, real_run_test = engine_module.fitness, engine_module.run_test

    def recording(unit, suite, failing, budget, fast_, parent=None, order=None):
        ran.clear()
        run = real_fitness(unit, suite, failing, budget, fast_, parent, order)
        runs.append((unit, suite, failing, parent, run, list(ran)))
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
    assert runs and all(parent is not None for *_, parent, _, _ in runs)
    assert max(len(parent.lineage) for *_, parent, _, _ in runs) >= 3
    verdicts = sum(len(run) for *_, run, _ in runs)
    executed = sum(len(names) for *_, names in runs)
    assert executed > 0 and verdicts - executed > 0, (executed, verdicts)
    for child, suite, failing, parent, run, names in runs:
        order = two_phase_order(suite, failing)
        reached = order if not fast else order[: len(run)]
        assert [name for name, _ in run] == [test.name for test in reached]
        # exactly the tests the parent's records cannot stand in for ran
        assert names == selected(child, suite, parent, reached)
        assert run.failures == sum(1 for _, passed in run if not passed)
        if fast and len(run) < len(order):
            assert not run[-1][1]
        for i, test in enumerate(suite):
            record = run.records[i]
            if record is None:
                assert test not in reached
                continue
            passed, result = real_run_test(child, test, STEP_BUDGET)
            assert record == (passed, result.executed)
            assert (test.name, passed) in run


DEPTH_TRAP = """fn g(x: int) -> int { return x; }
fn f(k: int) -> int { if (k > 0) { return f(k - 1); } return g(k); }
"""
DEPTH_BUDGET = 1_000  # `f(199)` takes 400 steps to reach its call of `g`


def test_a_run_that_traps_entering_the_edited_function_is_skipped_exactly(monkeypatch):
    """`f(199)` calls `g` from depth 200: the run enters `g` and traps before
    its body, so its record holds statements of `f` alone, and a child that
    edits `g` takes its verdict without running it. That verdict equals a
    fresh run."""
    unit = parse(DEPTH_TRAP)
    suite = [testsuite.TestCase("deep", "f", (199,), 0), testsuite.TestCase("shallow", "f", (3,), 0)]
    assert run_test(unit, suite[0], DEPTH_BUDGET)[1].error_kind == "call-depth-exceeded"
    run = engine_module.fitness(unit, suite, [], DEPTH_BUDGET)
    in_f = {StatementId("f", k) for k in range(3)}
    assert run.records == ((False, in_f), (True, in_f | {StatementId("g", 0)}))
    parent = engine_module.ProgramVariant(unit, [], 1, 0, run)
    edited_g = parse("fn g(x: int) -> int { return x + 1; }").functions[0]
    child = SourceUnit([edited_g, unit.functions[1]])
    ran = []

    def counting(unit, test, budget):
        ran.append(test.name)
        return run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "run_test", counting)
    run = engine_module.fitness(child, suite, [], DEPTH_BUDGET, parent=parent)
    assert ran == ["shallow"]
    for test, record in zip(suite, run.records):
        passed, result = run_test(child, test, DEPTH_BUDGET)
        assert record == (passed, result.executed)
    assert list(run) == [("deep", False), ("shallow", False)]


STEPS = """fn loop(n: int) -> int {
  let i = 0;
  while (i < n) {
    i = i + 1;
  }
  return i;
}
fn f(x: int) -> int { return x; }
"""


def test_a_parent_run_at_another_budget_stands_in_for_nothing(monkeypatch):
    """`loop` passes at 10,000 steps and runs out of a 20-step budget. A
    child that edits only `f` shares `loop`, but its parent's run at
    10,000 steps cannot stand in for its run at 20: every test runs, and
    the child fails `loop` as a fresh run at 20 steps does."""
    unit = parse(STEPS)
    suite = [testsuite.TestCase("loop", "loop", (50,), 50), testsuite.TestCase("f", "f", (1,), 1)]
    run = engine_module.fitness(unit, suite, [], 10_000)
    assert list(run) == [("loop", True), ("f", True)]
    parent = engine_module.ProgramVariant(unit, [], 0, 0, run)
    edited_f = parse("fn f(x: int) -> int { return x + 0; }").functions[0]
    child = SourceUnit([unit.functions[0], edited_f])
    ran = []

    def counting(unit, test, budget):
        ran.append(test.name)
        return run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "run_test", counting)
    fresh = engine_module.fitness(child, suite, [], 20)
    assert list(fresh) == [("loop", False), ("f", True)]
    ran.clear()
    for fast in (False, True):
        short = engine_module.fitness(child, suite, [], 20, fast, parent)
        assert list(short) == list(fresh)[: 2 - fast] and short.failures == 1
        assert short.records[0] == fresh.records[0] and short.step_budget == 20
        assert ran == ["loop", "f"][: 2 - fast]
        ran.clear()
    # at the parent's budget, the run stands in for the test of `loop`
    assert list(engine_module.fitness(child, suite, [], 10_000, parent=parent)) == list(run)
    assert ran == ["f"]
