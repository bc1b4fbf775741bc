"""One record of a suite run: the original's run, which fault localization
ranks, is the run `fitness` makes of the same program with no parent.

On every corpus case and on random units, `build_matrix`'s run equals
`fitness`'s (verdicts, records, failures, order and budget); each record
holds the statements the tree-walking reference began for that test;
`rank` over the run equals the brute-force ranking; and `rank` of a fast
run that stopped before some test raises. A run, and a variant holding
one, survives copying and pickling with every field, and its copy builds
its own index."""

import copy
import pickle
import random

import pytest

from minirepair.engine import ProgramVariant, fitness
from minirepair.faultloc import FORMULAS, SuiteRun, build_matrix, rank
from minirepair.minilang import all_statement_ids
from randprog import random_unit
from samples import corpus_case_names, load_corpus_case
from test_compiled_interpreter import reference
from test_faultloc import brute_force_rank
from test_indexed_fitness import BUDGET, random_suite


def fields_of(run):
    return list(run), run.records, run.failures, run.suite, run.order, run.step_budget


def check_one_record(unit, suite, budget) -> bool:
    """Check the original's run of `suite` on `unit`; whether a test failed,
    so that `rank` had a run to read."""
    run = build_matrix(unit, suite, budget)
    failing = [name for name, passed in run if not passed]
    assert fields_of(fitness(unit, suite, failing, budget)) == fields_of(run)
    for test, (passed, executed) in zip(suite, run.records):
        args = [list(a) if isinstance(a, tuple) else a for a in test.args]
        assert type(executed) is frozenset
        assert executed == reference(unit, test.fn, args, budget).executed
    if not failing:
        return False
    order = tuple(all_statement_ids(unit))
    for formula in FORMULAS:
        ranked = rank(run, formula, order)
        expected = brute_force_rank(run, formula, order)
        assert [s.statement for s in ranked] == [statement for statement, _ in expected]
        for got, (_, want) in zip(ranked, expected):
            assert abs(got.score - want) <= 1e-9
    stopped = fitness(unit, suite, failing, budget, fast=True)  # at its first test, which fails
    if len(suite) > 1:
        with pytest.raises(ValueError, match="record of every test"):
            rank(stopped, "ochiai", order)
    return True


@pytest.mark.parametrize("name", corpus_case_names())
def test_the_original_run_is_one_record_on_corpus_cases(name):
    unit, suite, meta = load_corpus_case(name)
    check_one_record(unit, suite, meta.get("config", {}).get("step_budget", 100_000))


def test_the_original_run_is_one_record_on_random_units():
    ranked = 0
    for seed in range(60):
        unit = random_unit(seed)
        ranked += check_one_record(unit, random_suite(unit, random.Random(seed)), BUDGET)
    assert ranked > 30, ranked


def test_a_run_copies_and_pickles_with_every_field(buggy_max, max_suite):
    run = fitness(buggy_max, max_suite, ["t1"], 1000)
    built = run.index()
    for copied in (copy.copy(run), copy.deepcopy(run), pickle.loads(pickle.dumps(run))):
        assert type(copied) is SuiteRun
        assert fields_of(copied) == fields_of(run)
        assert copied._index is None  # a cache, left out as `FunctionDef`'s are
        assert copied.index() == built
    variant = ProgramVariant(buggy_max, [], run.failures, 0, run)
    for copied in (copy.copy(variant), copy.deepcopy(variant), pickle.loads(pickle.dumps(variant))):
        assert fields_of(copied.run) == fields_of(run)
