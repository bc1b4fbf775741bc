"""The one-loop child run against a walk over every test.

`fitness` copies its parent's `SuiteRun` and reruns, in run order, only
the tests its index lists under the child's unshared functions or without
a record. `walk_fitness` below is the run as a walk: it visits every test
in two-phase order and asks each parent record whether it began a
statement of an unshared function. On random lineages in every mode,
with parents whose runs are full runs, fast runs, full runs with holes
punched in their records, runs in another order and runs at another
budget, and with no parent, both runs give the same verdicts in the same
order, the same records and the same failure count, and run the same
tests in the same order, with `fast` off and on. A parent's run stands
in only for a run of its suite, in its order, at its budget.
"""

import random

import pytest

import minirepair.engine as engine_module
from minirepair.engine import ProgramVariant, fitness
from minirepair.faultloc import SuiteRun, run_order
from minirepair.minilang import testsuite
from minirepair.minilang.interpreter import RETURNED, interpret
from minirepair.minilang.nodes import T_BOOL, T_INT
from minirepair.operators import MODES
from randprog import random_lineage
from test_compiled_interpreter import random_args

BUDGET = 500


def walk_fitness(unit, suite, originally_failing, step_budget, fast=False, parent=None, order=None):
    """`fitness` as a walk over every test, with the parent's records read
    test by test."""
    if order is None:
        first = set(originally_failing)
        order = [i for i, t in enumerate(suite) if t.name in first]
        order += [i for i, t in enumerate(suite) if t.name not in first]
    edited = None
    base = None if parent is None else parent.run
    if base is not None and (base.suite, base.order, base.step_budget) == (suite, tuple(order), step_budget):
        before = parent.ast.functions
        if [fn.name for fn in unit.functions] == [fn.name for fn in before]:
            edited = {fn.name for fn, old in zip(unit.functions, before) if fn is not old}
    records = [None] * len(suite)
    verdicts = []
    for i in order:
        record = None if edited is None else base.records[i]
        if record is None or not edited.isdisjoint(sid.function for sid in record[1]):
            passed, result = testsuite.run_test(unit, suite[i], step_budget)
            record = passed, result.executed
        records[i] = record
        verdicts.append((suite[i].name, record[0]))
        if fast and not record[0]:
            break
    return tuple(verdicts), tuple(records)


def random_suite(unit, rng):
    """Three tests of each function; most expect what the unit returns, so
    that a child's edits flip some verdicts each way."""
    suite = []
    for fn in unit.functions:
        for k in range(3):
            args = tuple(random_args([t for _, t in fn.params], rng))
            result = interpret(unit, fn.name, args, BUDGET)
            expect = result.value if result.status == RETURNED else None
            if expect is None or rng.random() < 0.25:
                expect = {T_INT: rng.randint(-3, 3), T_BOOL: rng.random() < 0.5}.get(fn.return_type, [])
            suite.append(testsuite.TestCase(f"{fn.name}_{k}", fn.name, args, expect))
    return suite


def parent_variant(unit, suite, failing, rng, kind):
    """A parent of `unit` whose run is a full run, a fast run, a full run
    with about a third of its records dropped, a full run in another
    order or at another budget; or no parent."""
    if kind == "none":
        return None
    order = run_order(suite, failing)
    if kind == "order":
        order = order[::-1]
    budget = BUDGET // 20 if kind == "budget" else BUDGET
    verdicts, records = walk_fitness(unit, suite, failing, budget, kind == "fast", order=order)
    if kind == "holes":
        records = tuple(None if rng.random() < 0.35 else record for record in records)
    failures = sum(1 for _, passed in verdicts if not passed)
    run = SuiteRun(verdicts, records, failures, suite, order, budget)
    return ProgramVariant(unit, [], failures, 0, run)


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_indexed_fitness_equals_the_walk_on_random_lineages(mode, fast, monkeypatch):
    ran = []
    real_run_test = engine_module.run_test

    def counting(unit, test, budget):
        ran.append(test.name)
        return real_run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "run_test", counting)
    compared, rerun, tests = {}, 0, 0
    for seed in range(40):
        rng = random.Random(seed)
        lineage = list(random_lineage(seed, mode, generations=4))
        if not lineage:
            continue
        suite = random_suite(lineage[0][0], rng)
        failing = [name for name, passed in walk_fitness(lineage[0][0], suite, [], BUDGET)[0] if not passed]
        order = run_order(suite, failing)
        for parent, _, child in lineage:
            for kind in ("full", "fast", "holes", "order", "budget", "none"):
                variant = parent_variant(parent, suite, failing, rng, kind)
                monkeypatch.setattr(testsuite, "run_test", counting)
                verdicts, want = walk_fitness(child, suite, failing, BUDGET, fast, variant)
                monkeypatch.setattr(testsuite, "run_test", real_run_test)
                expected, ran[:] = list(ran), []
                # the order of the search, then a fresh one equal to it
                for given in (order, None, order):
                    run = fitness(child, suite, failing, BUDGET, fast, variant, given)
                    assert tuple(run) == verdicts
                    assert run.records == want
                    assert run.failures == sum(1 for _, passed in verdicts if not passed)
                    assert (run.suite, run.order, run.step_budget) == (suite, order, BUDGET)
                    assert ran == expected
                    ran.clear()
                compared[kind] = compared.get(kind, 0) + 1
                if kind == "full":
                    rerun += len(expected)
                    tests += len(suite)
                elif kind in ("order", "budget", "none"):
                    # nothing stands in: every test the run reaches runs
                    assert len(expected) == len(verdicts)
    assert min(compared.values()) > 100 and 0 < rerun < tests, (compared, rerun, tests)
