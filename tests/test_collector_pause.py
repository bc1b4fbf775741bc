"""A search makes no reference cycles, so `evolve` runs it with CPython's
cyclic collector paused: every object a search drops is freed by its
reference count, and `evolve` leaves the collector as its caller had it,
on return and on any exception."""

import gc
import json

import pytest

import minirepair.engine as engine_module
from minirepair.engine import EngineConfig, NoFailingTest, UnlocalizableFault, evolve
from minirepair.minilang import parse
from minirepair.minilang.checker import typed_free_vars
from minirepair.minilang.nodes import AssignStmt, Index, IndexAssignStmt, LetStmt, Var
from minirepair.minilang.nodes import child_blocks, iter_statements, stmt_expr_nodes
from minirepair.minilang.testsuite import load_suite
from minirepair.operators import MODES

from randprog import random_unit
from samples import CORPUS, MAX_SUITE, corpus_case_names
from test_cow_variants import binding_envs, merged_corpus_unit
from test_evolve_robustness import STEP_BUDGET
from test_validation import seeded_defect


def cyclic_garbage(unit, suite, config) -> int:
    """How many objects that one search allocated it left unreachable in
    reference cycles, which only the cyclic collector would free. With the
    collector off, every object the search allocates stays in the youngest
    generation, which a collection of that generation alone then sweeps."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect(0)
        try:
            evolve(unit, suite, config)
        except (NoFailingTest, UnlocalizableFault):
            pass
        return gc.collect(0)
    finally:
        if enabled:
            gc.enable()


def test_no_corpus_search_leaves_cyclic_garbage():
    """Every corpus case in every mode, several generations deep."""
    leaks = {}
    for name in corpus_case_names():
        case = CORPUS / name
        meta = json.loads((case / "meta.json").read_text())
        unit = parse((case / "program.ml").read_text(), source_name=name)
        suite = load_suite((case / "tests.json").read_text(), unit)
        for mode in MODES:
            config = EngineConfig(
                mode=mode,
                population_size=6,
                max_generations=8,
                ingredient_scope="global",
                **meta.get("config", {}),
            )
            leaks[name, mode] = cyclic_garbage(unit, suite, config)
    assert {key: n for key, n in leaks.items() if n} == {}


def test_no_random_search_leaves_cyclic_garbage():
    """Searches for seeded defects of random units, in every mode, with and
    without fast validation and lineage checks, each run to its last
    generation."""
    leaks = {}
    for seed in range(30):
        case = seeded_defect(seed)
        if case is None:
            continue
        unit, suite = case
        for mode in MODES:
            for fast in (False, True):
                for check in (False, True):
                    config = EngineConfig(
                        mode=mode,
                        population_size=4,
                        max_generations=4,
                        ingredient_scope="global",
                        step_budget=STEP_BUDGET,
                        seed=seed,
                        max_patches=99,
                        fast_validation=fast,
                        check_lineages=check,
                    )
                    leaks[seed, mode, fast, check] = cyclic_garbage(unit, suite, config)
    assert len(leaks) > 100
    assert {key: n for key, n in leaks.items() if n} == {}


def closure_typed_free_vars(stmt, origin_env):
    """`typed_free_vars` as a self-recursive nested closure, the walk it
    replaced, which left a function-cell cycle on every call."""
    free = set()

    def note(name, bound):
        if any(name in frame for frame in bound):
            return
        free.add((name, origin_env.get(name, "?")))

    def visit_stmt(s, bound):
        for node in stmt_expr_nodes(s):
            if isinstance(node, (Var, Index)):
                note(node.name, bound)
        if isinstance(s, LetStmt):
            bound[-1].add(s.name)
        elif isinstance(s, (AssignStmt, IndexAssignStmt)):
            note(s.name, bound)
        for _, body in child_blocks(s):
            bound.append(set())
            for child in body:
                visit_stmt(child, bound)
            bound.pop()

    visit_stmt(stmt, [set()])
    return frozenset(free)


def test_typed_free_vars_matches_the_closure_walk_and_makes_no_cycle():
    units = [merged_corpus_unit()] + [random_unit(seed) for seed in range(40)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for unit in units:
            envs = binding_envs(unit)
            for sid, stmt in iter_statements(unit):
                for env in (envs[sid], {}):
                    gc.collect(0)
                    free = typed_free_vars(stmt, env)
                    assert gc.collect(0) == 0, sid
                    assert free == closure_typed_free_vars(stmt, env), sid
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector switched as the parameter says, and back afterwards."""
    enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if enabled else gc.disable()


def config():
    return EngineConfig(mode="jmutrepair", population_size=4, max_generations=3)


def test_evolve_pauses_the_collector_and_restores_it(collector, buggy_max, max_suite, monkeypatch):
    during = []
    real = engine_module.step_generation

    def spying(*args):
        during.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(engine_module, "step_generation", spying)
    evolve(buggy_max, max_suite, config())
    assert during and not any(during)
    assert gc.isenabled() is collector


def test_evolve_restores_the_collector_when_it_raises(
    collector, buggy_max, correct_max, max_suite, monkeypatch
):
    with pytest.raises(NoFailingTest):
        evolve(correct_max, load_suite(MAX_SUITE, correct_max), config())
    assert gc.isenabled() is collector

    with monkeypatch.context() as patched:
        patched.setattr(engine_module, "rank", lambda run, formula, statement_order: [])
        with pytest.raises(UnlocalizableFault):
            evolve(buggy_max, max_suite, config())
    assert gc.isenabled() is collector

    def failing(*args):
        raise RuntimeError("step failed")

    monkeypatch.setattr(engine_module, "step_generation", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        evolve(buggy_max, max_suite, config())
    assert gc.isenabled() is collector
