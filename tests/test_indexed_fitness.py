"""The indexed child run against the walk it replaced.

`fitness` reads a parent's records through its `RecordIndex` and reruns
only the tests listed under the child's unshared functions or without a
record. `walk_fitness` below is the run as it was before the index: it
visits every test in two-phase order and asks each parent record whether
it began an unshared function. On random lineages in every mode, with
parents whose records come from full runs, from fast runs and with holes
punched in them, both runs give the same verdicts in the same order, the
same records and the same failure count, and run the same tests in the
same order, with `fast` off and on.
"""

import random

import pytest

import minirepair.engine as engine_module
from minirepair.engine import ProgramVariant, fitness, run_order
from minirepair.minilang import testsuite
from minirepair.minilang.interpreter import RETURNED, interpret
from minirepair.minilang.nodes import T_BOOL, T_INT
from minirepair.operators import MODES
from randprog import random_lineage
from test_compiled_interpreter import random_args

BUDGET = 500


def walk_fitness(unit, suite, originally_failing, step_budget, fast=False, parent=None):
    """`fitness` as it ran every child before the records were indexed."""
    first = set(originally_failing)
    order = [i for i, t in enumerate(suite) if t.name in first]
    order += [i for i, t in enumerate(suite) if t.name not in first]
    edited = None
    if parent is not None and len(parent.records) == len(suite):
        before = parent.ast.functions
        if [fn.name for fn in unit.functions] == [fn.name for fn in before]:
            edited = {fn.name for fn, old in zip(unit.functions, before) if fn is not old}
    records = [None] * len(suite)
    verdicts = []
    for i in order:
        record = None if edited is None else parent.records[i]
        if record is None or not edited.isdisjoint(record[1]):
            passed, result = testsuite.run_test(unit, suite[i], step_budget)
            record = passed, frozenset(sid.function for sid in result.executed)
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


def parent_records(unit, suite, failing, rng, kind):
    """Records of `unit`: a full run's, a fast run's, or a full run's with
    about a third of them dropped."""
    _, records = walk_fitness(unit, suite, failing, BUDGET, fast=kind == "fast")
    if kind == "holes":
        records = tuple(None if rng.random() < 0.35 else record for record in records)
    return records


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_indexed_fitness_equals_the_walk_on_random_lineages(mode, fast, monkeypatch):
    ran = []
    real_run_test = engine_module.run_test

    def counting(unit, test, budget):
        ran.append(test.name)
        return real_run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "run_test", counting)
    compared = rerun = tests = 0
    for seed in range(40):
        rng = random.Random(seed)
        lineage = list(random_lineage(seed, mode, generations=4))
        if not lineage:
            continue
        suite = random_suite(lineage[0][0], rng)
        failing = [name for name, passed in walk_fitness(lineage[0][0], suite, [], BUDGET)[0] if not passed]
        order = run_order(suite, failing)
        for parent, _, child in lineage:
            for kind in ("full", "fast", "holes"):
                records = parent_records(parent, suite, failing, rng, kind)
                variant = ProgramVariant(parent, [], 0, 0, records)
                monkeypatch.setattr(testsuite, "run_test", counting)
                verdicts, want = walk_fitness(child, suite, failing, BUDGET, fast, variant)
                monkeypatch.setattr(testsuite, "run_test", real_run_test)
                expected, ran[:] = list(ran), []
                # the order of the search, then a fresh one; the index is kept
                for given in (order, None, order):
                    run = fitness(child, suite, failing, BUDGET, fast, variant, given)
                    assert tuple(run) == verdicts
                    assert run.records == want
                    assert run.failures == sum(1 for _, passed in verdicts if not passed)
                    assert ran == expected
                    ran.clear()
                compared += 1
                rerun += len(expected)
                tests += len(suite)
                assert variant.index is None or variant.index.order is order
    assert compared > 100 and 0 < rerun < tests, (compared, rerun, tests)
