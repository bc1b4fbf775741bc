"""Copy-on-write variants and the per-function ingredient lists: the
harvest against the reference harvester, parents left untouched and
unedited functions shared by every operator, one list build per
function, and a child's tables built only once it is drawn on."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair import engine, operators
from minirepair.engine import EngineConfig, evolve, replay_lineage
from minirepair.minilang import all_statement_ids, iter_statements, parse, path_of, pretty_print
from minirepair.minilang.checker import check_function, signatures
from minirepair.minilang.nodes import (
    Expr,
    IfStmt,
    StatementId,
    Stmt,
    WhileStmt,
    clone,
    iter_statement_paths,
    resolve_container,
)
from minirepair.operators import (
    MODES,
    ModificationPoint,
    PatchOp,
    PatchSkip,
    StalePoint,
    apply_patch_op,
    enumerate_ops,
    SCOPES,
    harvest_ingredients,
)

from samples import CORPUS, corpus_case_names, load_corpus_case
from randprog import random_unit
from reference_harvest import binding_env_reference, harvest_reference


def binding_envs(unit):
    """The binding environment just before each statement of `unit`, by its
    id, in pre-order: `check_function`'s tables, re-keyed."""
    sigs = signatures(unit)
    return {
        StatementId(fn.name, index): env
        for fn in unit.functions
        for index, env in enumerate(check_function(fn, sigs).values())
    }


def all_points(unit):
    return [ModificationPoint(sid, path_of(unit, sid)) for sid in all_statement_ids(unit)]


def merged_corpus_unit():
    """The 13 corpus programs concatenated into one unit, in case-name order."""
    texts = [(CORPUS / name / "program.ml").read_text().strip() for name in corpus_case_names()]
    return parse("\n\n".join(texts) + "\n", source_name="merged")


def assert_harvest_matches_reference(unit):
    for point in all_points(unit):
        for scope in SCOPES:
            pool = harvest_ingredients(unit, point, scope)
            got = [(e.text, e.origin, e.free_vars) for e in pool.entries]
            assert got == harvest_reference(unit, point, scope)


def test_harvest_matches_reference_on_corpus():
    for name in corpus_case_names():
        assert_harvest_matches_reference(load_corpus_case(name)[0])


def test_harvest_matches_reference_on_merged_corpus():
    unit = merged_corpus_unit()
    assert len(unit.functions) == 14
    assert_harvest_matches_reference(unit)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_harvest_and_binding_env_match_reference_on_random_units(seed):
    unit = random_unit(seed)
    assert_harvest_matches_reference(unit)
    envs = binding_envs(unit)
    assert list(envs) == all_statement_ids(unit)
    for sid, path, stmt in iter_statement_paths(unit):
        assert path == path_of(unit, sid)
        expected = binding_env_reference(unit, sid.function, path)
        assert envs[sid] == expected
        for function, stale in stale_paths(unit, sid.function, path, stmt):
            assert binding_env_reference(unit, function, stale) is None
            assert resolve_container(unit, function, stale) is None
            stale_point = ModificationPoint(sid._replace(function=function), stale)
            with pytest.raises(StalePoint):
                enumerate_ops("jgenprog", stale_point, unit)
            with pytest.raises(StalePoint):
                apply_patch_op(unit, PatchOp("Remove", stale_point))


def stale_paths(unit, function, path, stmt):
    """(function, path) pairs that address no statement, derived from the
    path of `stmt`."""
    block, _ = resolve_container(unit, function, path)
    slot = path[-1][0]
    yield function, path[:-1] + ((slot, len(block)),)  # index out of range
    yield function, path[:-1] + ((slot, len(block) + 3),)
    if isinstance(stmt, IfStmt) and stmt.else_body is None:
        yield function, path + (("else", 0),)
    if isinstance(stmt, WhileStmt):
        yield function, path + (("then", 0),)
    if not isinstance(stmt, (IfStmt, WhileStmt)):
        yield function, path + (("body", 0),)  # a statement without blocks
    yield "no_such_function", path
    yield function, ()
    yield function, (("then", 0),) + path[1:]
    yield function, (("else", path[0][1]),) + path[1:]


def test_ingredients_are_the_units_own_statements():
    unit = merged_corpus_unit()
    statements = {id(stmt) for _, stmt in iter_statements(unit)}
    pool = harvest_ingredients(unit, all_points(unit)[0], "global")
    assert pool.entries and all(id(e.stmt) in statements for e in pool.entries)


def test_ingredient_list_stays_with_the_unit():
    unit, _, _ = load_corpus_case("double_sum_missing_add")
    harvest_ingredients(unit, all_points(unit)[0], "global")
    fn = unit.functions[0]
    assert {"_envs", "_ingredients"} <= set(vars(fn))
    copies = [clone(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))]
    copies += copy.deepcopy(unit).functions + pickle.loads(pickle.dumps(unit)).functions
    for copied in copies:
        assert not any(key.startswith("_") for key in vars(copied))


def test_a_child_builds_its_environments_only_when_drawn_on():
    unit, _, _ = load_corpus_case("double_sum_missing_add")
    point = all_points(unit)[3]  # `i = i + 1;` in the first loop
    child, _ = apply_patch_op(unit, PatchOp("Remove", point))
    edited = child.function(point.statement.function)
    assert "_envs" not in vars(edited)
    child_point = all_points(child)[0]
    pool = harvest_ingredients(child, child_point, "local")
    assert enumerate_ops("jgenprog", child_point, child, pool)
    assert operators.function_envs(child, edited) is vars(edited)["_envs"]
    assert vars(edited)["_envs"] == check_function(edited, signatures(child))


# --- copy-on-write children ---------------------------------------------------


def node_ids(node):
    """Ids of a tree's nodes and node lists."""
    found = {id(node)}
    for value in vars(node).values():
        if isinstance(value, list):
            found.add(id(value))
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, (Expr, Stmt)):
                found |= node_ids(item)
    return found


def test_clone_matches_deepcopy_and_shares_no_node():
    units = [merged_corpus_unit()] + [random_unit(seed) for seed in range(50)]
    for fn in (fn for unit in units for fn in unit.functions):
        copied = clone(fn)
        # pickles hold every field, the ids and locations left out of `==` too
        assert pickle.dumps(copied) == pickle.dumps(copy.deepcopy(fn))
        assert node_ids(copied).isdisjoint(node_ids(fn))


def positions_of(unit):
    """Each statement's positional id and path, with the statement object."""
    return [(sid, path, id(stmt)) for sid, path, stmt in iter_statement_paths(unit)]


def every_op(unit, mode, scope):
    for point in all_points(unit):
        pool = operators.EMPTY_POOL
        if mode == "jgenprog":
            pool = harvest_ingredients(unit, point, scope)
        yield from enumerate_ops(mode, point, unit, pool)


def apply_every_op(original, lineage, parent, scope, rng):
    """Apply every op of every mode to `parent`, a replay of `lineage` on
    `original`, checking its harvest and each child; returns the (lineage,
    child) pairs."""
    assert_harvest_matches_reference(parent)
    snapshot, text, positions = copy.deepcopy(parent), pretty_print(parent), positions_of(parent)
    made = []
    for mode in MODES:
        for op in every_op(parent, mode, scope):
            try:
                child, concrete = apply_patch_op(parent, op, rng)
            except PatchSkip:
                child = None
            assert parent == snapshot
            assert positions_of(parent) == positions
            if child is None:
                continue
            edited = op.point.statement.function
            assert len(child.functions) == len(parent.functions)
            for old, new in zip(parent.functions, child.functions):
                assert (new is old) == (old.name != edited)
            child_lineage = lineage + [concrete]
            assert pretty_print(replay_lineage(original, child_lineage)) == pretty_print(child)
            made.append((child_lineage, child))
    assert pretty_print(parent) == text  # an edit would persist, so one print suffices
    return made


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_children_share_unedited_functions_and_leave_parents_intact(seed):
    original = random_unit(seed)
    rng = random.Random(seed)
    scope = SCOPES[seed % 2]
    children = apply_every_op(original, [], original, scope, rng)
    # A copy-on-write child as parent, then a grandchild: each one's
    # children share with it, and its ingredient lists are mostly its
    # parent's.
    for _ in range(2):
        if not children:
            break
        lineage, child = rng.choice(children)
        children = apply_every_op(original, lineage, child, scope, rng)


def test_one_generation_builds_the_ingredient_list_once(monkeypatch):
    unit, suite, meta = load_corpus_case("double_sum_missing_add")
    for fn in unit.functions:  # the search's points walk too; cache them first
        operators.function_points(fn)
    builds, harvested = [], []
    build, harvest = operators.iter_function_paths, engine.harvest_ingredients
    monkeypatch.setattr(operators, "iter_function_paths", lambda fn: builds.append(fn) or build(fn))
    monkeypatch.setattr(
        engine, "harvest_ingredients", lambda u, *rest: harvested.append(u) or harvest(u, *rest)
    )
    config = EngineConfig(
        mode="jgenprog",
        population_size=10,
        max_generations=1,
        ingredient_scope="global",
        step_budget=2000,
        seed=meta["seed"],
        max_patches=1000,
    )
    evolve(unit, suite, config)
    assert len(harvested) >= 10 and all(u is unit for u in harvested)
    # one list per function of the input unit, built once
    assert len(builds) == len(unit.functions)
    assert all(built is fn for built, fn in zip(builds, unit.functions))
