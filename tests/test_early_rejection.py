"""A discarded jgenprog draw costs no copy. `apply_patch_op` rejects an op
whose child `_finish` is certain to reject before it path-copies anything
(`operators._certain_type_error`); `harvest_ingredients` keeps one
deduplicated pool per unit and scope in the caller's `pools`; and
`GenprogOps` builds only the op it is asked for. Each is checked here
against the path it replaced: the full-copy child maker
(`reference_children`), the walking harvester (`reference_harvest`) and
the fully built op list."""

import random
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair import engine, operators
from minirepair.engine import EngineConfig, evolve
from minirepair.minilang import StatementId, parse, path_of
from minirepair.minilang.checker import _block_returns, returns_after_edit, statement_facts
from minirepair.minilang.nodes import (
    IfStmt,
    LetStmt,
    copy_path,
    iter_depths,
    iter_statement_paths,
)
from minirepair.minilang.parser import MAX_NESTING
from minirepair.operators import (
    MODES,
    SCOPES,
    GenprogOps,
    ModificationPoint,
    PatchOp,
    PatchSkip,
    TypeCheckFailed,
    apply_patch_op,
    enumerate_ops,
    harvest_ingredients,
)

from randprog import random_lineage, random_unit
from reference_children import apply_reference
from reference_harvest import harvest_reference
from samples import corpus_case_names, load_corpus_case
from test_cow_variants import all_points, merged_corpus_unit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


class CopyCounter:
    """Counts `operators.copy_path` calls while installed."""

    def __init__(self, monkeypatch):
        self.copies = 0
        copy = operators.copy_path

        def counted(*args):
            self.copies += 1
            return copy(*args)

        monkeypatch.setattr(operators, "copy_path", counted)


def every_ingredient_op(unit, point, scope):
    """Remove, and a Replace and an InsertBefore with every ingredient of
    the point's pool, fitting or not, so that each skip the family raises
    before the type check is met too."""
    yield PatchOp("Remove", point)
    for ingredient in harvest_ingredients(unit, point, scope).entries:
        for kind in ("Replace", "InsertBefore"):
            yield PatchOp(kind, point, {"ingredient": ingredient})


def skip_of(make, unit, op):
    try:
        make(unit, op, random.Random(0))
    except PatchSkip as skip:
        return type(skip)
    return None


def assert_early_rejections_are_sound(unit, counter, rng=None):
    """Every op of every point, in both scopes: an op that `apply_patch_op`
    rejects with no copy made is one that the full-copy reference's full
    check rejects, and every other op is skipped as the reference skips it
    (with `rng`, one in ten of them is compared). Returns the count of
    early rejections."""
    early = 0
    for point in all_points(unit):
        for scope in SCOPES:
            for op in every_ingredient_op(unit, point, scope):
                before = counter.copies
                skip = skip_of(apply_patch_op, unit, op)
                rejected = skip is TypeCheckFailed and counter.copies == before
                early += rejected
                if rejected or rng is None or rng.random() < 0.1:
                    assert skip is skip_of(apply_reference, unit, op), (op.kind, op.point, op.payload)
    return early


def test_early_rejections_are_sound_on_the_merged_corpus(monkeypatch):
    counter = CopyCounter(monkeypatch)
    assert assert_early_rejections_are_sound(merged_corpus_unit(), counter) > 0


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_early_rejections_are_sound_on_random_lineages(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = CopyCounter(monkeypatch)
        for mode in MODES:
            parents = [parent for parent, _, _ in random_lineage(seed, mode, generations=3)]
            for parent in parents or [random_unit(seed)]:
                assert_early_rejections_are_sound(parent, counter, random.Random(seed))


def test_most_type_check_failures_of_a_genprog_wide_pass_need_no_copy(monkeypatch):
    """The floor: a pass of the benchmark's `genprog-wide` pool meets 355
    type-check failures, and the rules catch at least 280 of them before
    the copy."""
    counter = CopyCounter(monkeypatch)
    failures = {"all": 0, "early": 0}
    apply = engine.apply_patch_op

    def traced(parent, op, rng=None):
        before = counter.copies
        try:
            return apply(parent, op, rng)
        except TypeCheckFailed:
            failures["all"] += 1
            failures["early"] += counter.copies == before
            raise

    monkeypatch.setattr(engine, "apply_patch_op", traced)
    targets = worker.load_targets("genprog-wide")
    for job in workloads.job_pool("genprog-wide"):
        evolve(*targets[job.target], EngineConfig(**job.engine_kwargs()))
    assert failures["all"] == 355
    assert failures["early"] >= 280


# --- the facts the rules read -----------------------------------------------


def facts_units():
    units = [load_corpus_case(name)[0] for name in corpus_case_names()]
    units.append(merged_corpus_unit())
    return units + [random_unit(seed) for seed in range(60)]


def test_statement_facts_match_the_tree_walks():
    """`declares` holds every `let` name at any depth, and `height` is the
    depth `iter_depths` gives the statement's deepest node."""
    for unit in facts_units():
        for _, _, stmt in iter_statement_paths(unit):
            _, declares, height = statement_facts(stmt, {})
            nodes = list(iter_depths([stmt]))
            assert declares == {node.name for node, _ in nodes if isinstance(node, LetStmt)}
            assert height == max(depth for _, depth in nodes)


def test_returns_after_edit_matches_the_edited_body():
    """For a removal, and for a replacement by each statement of the unit,
    at every point: the answer is `_block_returns` of the edited body."""
    for unit in facts_units()[-20:] + facts_units()[:3]:
        statements = [stmt for _, _, stmt in iter_statement_paths(unit)]
        for sid, path, _ in iter_statement_paths(unit):
            fn = unit.function(sid.function)
            for written in [None] + statements[:8]:
                copied, owner, block, index = copy_path(fn, path)
                if written is None:
                    del block[index]
                    if not block and isinstance(owner, IfStmt) and owner.else_body is block:
                        owner.else_body = None
                else:
                    block[index] = written
                assert returns_after_edit(fn.body, path, written) == _block_returns(copied.body)


def test_an_ingredient_that_redeclares_or_nests_too_deep_is_rejected_before_the_copy(monkeypatch):
    unit = parse(
        "fn f(x: int) -> int {\n  let y = x;\n  if (x > 0) {\n    let z = 1;\n    x = z;\n  }\n"
        "  return y;\n}\n"
    )
    counter = CopyCounter(monkeypatch)
    point = ModificationPoint(StatementId("f", 0), path_of(unit, StatementId("f", 0)))
    pool = harvest_ingredients(unit, point, "local")
    guarded = next(e for e in pool.entries if e.origin == StatementId("f", 1))
    assert guarded.declares == {"z"} and guarded.height == 3  # the if, `x > 0`, `x`
    # before `let y`, `z` is unbound: admitted, and its child is kept
    apply_patch_op(unit, PatchOp("InsertBefore", point, {"ingredient": guarded}))
    assert counter.copies == 1
    # inside the `if`, after `let z`, the `let z` of the copy is a redeclaration
    inner = ModificationPoint(StatementId("f", 3), path_of(unit, StatementId("f", 3)))
    for kind in ("InsertBefore", "Replace"):
        try:
            apply_patch_op(unit, PatchOp(kind, inner, {"ingredient": guarded}))
        except TypeCheckFailed as exc:
            assert "redeclares" in str(exc)
        else:
            raise AssertionError(f"{kind} of a redeclaring ingredient was kept")
    assert counter.copies == 1
    assert len(path_of(unit, StatementId("f", 3))) + guarded.height - 1 <= MAX_NESTING


# --- one pool per parent ------------------------------------------------------


def assert_shared_pools_match_reference(unit, pools):
    """Every point in both scopes, from one `pools` dict shared by them all,
    as the engine shares it among one generation's draws."""
    for point in all_points(unit):
        for scope in SCOPES:
            pool = harvest_ingredients(unit, point, scope, pools)
            got = [(e.text, e.origin, e.free_vars) for e in pool.entries]
            assert got == harvest_reference(unit, point, scope)
    assert len(pools) == 1 + len({point.statement.function for point in all_points(unit)})


def test_shared_pools_match_reference_on_the_corpus_and_the_merged_unit():
    for unit in [load_corpus_case(name)[0] for name in corpus_case_names()] + [merged_corpus_unit()]:
        assert_shared_pools_match_reference(unit, {})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_shared_pools_match_reference_on_random_units_and_children(seed):
    pools = {}
    assert_shared_pools_match_reference(random_unit(seed), pools)
    for _, _, child in random_lineage(seed, "jgenprog", generations=3):
        pools.clear()
        assert_shared_pools_match_reference(child, pools)


def test_a_point_whose_text_occurs_again_gives_way_to_the_second_occurrence():
    unit = parse(
        "fn f(x: int) -> int {\n  x = x + 1;\n  let y = 2;\n  x = x + 1;\n  return x + y;\n}\n"
        "fn g(x: int) -> int {\n  x = x + 1;\n  return x;\n}\n"
    )
    pools = {}
    first = ModificationPoint(StatementId("f", 0), path_of(unit, StatementId("f", 0)))
    for scope in SCOPES:
        pool = harvest_ingredients(unit, first, scope, pools)
        origins = [e.origin for e in pool.entries]
        assert origins[:2] == [StatementId("f", 1), StatementId("f", 2)]
        assert [(e.text, e.origin, e.free_vars) for e in pool.entries] == harvest_reference(
            unit, first, scope
        )


# --- the op sequence ------------------------------------------------------------


def built_ops(point, fitting):
    """The jgenprog op list in full, as `GenprogOps` once built it."""
    ops = [PatchOp("Remove", point)]
    for ingredient in fitting:
        ops.append(PatchOp("Replace", point, {"ingredient": ingredient}))
        if not ingredient.is_return_rooted:
            ops.append(PatchOp("InsertBefore", point, {"ingredient": ingredient}))
    return ops


def test_genprog_ops_equal_the_fully_built_list():
    rooted = 0
    for unit in facts_units():
        for point in all_points(unit):
            for scope in SCOPES:
                ops = enumerate_ops("jgenprog", point, unit, harvest_ingredients(unit, point, scope))
                assert isinstance(ops, GenprogOps)
                expected = built_ops(point, ops.fitting)
                rooted += sum(ingredient.is_return_rooted for ingredient in ops.fitting)
                assert len(ops) == len(expected)
                for i, op in enumerate(expected):
                    got = ops[i]
                    assert (got.kind, got.point) == (op.kind, op.point)
                    assert got.payload.get("ingredient") is op.payload.get("ingredient")
                for outside in (len(expected), len(expected) + 5, -1):
                    try:
                        ops[outside]
                    except IndexError:
                        continue
                    raise AssertionError(f"index {outside} of {len(expected)} ops")
    assert rooted > 0


# --- nothing search-scoped outlives the search ---------------------------------


def module_sizes():
    """The size of every module-level container of `operators` and `engine`."""
    return {
        (module.__name__, name): len(value)
        for module in (operators, engine)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def test_a_search_leaves_no_pool_and_no_cache_but_its_functions_own(monkeypatch):
    unit, suite, meta = load_corpus_case("double_sum_missing_add")
    held, harvested = [], []
    harvest = engine.harvest_ingredients

    def traced(unit, point, scope, pools=None):
        held.append(pools)
        pool = harvest(unit, point, scope, pools)
        harvested.append(weakref.ref(pool))
        return pool

    monkeypatch.setattr(engine, "harvest_ingredients", traced)
    sizes = module_sizes()
    config = EngineConfig(
        mode="jgenprog",
        population_size=10,
        max_generations=3,
        ingredient_scope="global",
        step_budget=2000,
        seed=meta["seed"],
        max_patches=1000,
    )
    evolve(unit, suite, config)
    assert module_sizes() == sizes
    assert len(harvested) >= 30 and len({id(pools) for pools in held}) == 1
    assert held[0] == {}  # cleared after each generation
    assert all(ref() is None for ref in harvested)
    # the unit keeps only its name index, which is its own functions'
    assert set(vars(unit)) <= {"functions", "source_name", "_positions"}
    if "_positions" in vars(unit):
        assert unit._positions == {fn.name: i for i, fn in reversed(list(enumerate(unit.functions)))}
    for fn in unit.functions:
        caches = {key for key in vars(fn) if key.startswith("_")}
        assert caches <= {"_code", "_envs", "_ingredients", "_points"}
    for _, _, stmt in iter_statement_paths(unit):
        assert not any(key.startswith("_") for key in vars(stmt))
