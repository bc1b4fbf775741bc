"""A discarded draw costs no copy. `apply_patch_op` judges every op with
`checker.check_edit` and `check_nesting` on what its edit writes before it
path-copies anything, so every `TypeCheckFailed` comes before the copy;
`harvest_ingredients` keeps one deduplicated pool per unit and scope in
the caller's `pools`; and `GenprogOps` builds only the op it is asked
for. Each is checked here against the path it replaced: the full-copy
child maker, which checks the whole edited function
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
from minirepair.minilang.checker import (
    _block_returns,
    check_edit,
    check_function,
    returns_after_edit,
    signatures,
)
from minirepair.minilang.errors import CheckError
from minirepair.minilang.nodes import IfStmt, copy_path, iter_statement_paths
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
    function_envs,
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


def every_checked_op(unit, point):
    """Remove, and a Replace and an InsertBefore with every ingredient of
    the point's pools in both scopes, fitting or not, so that each skip
    the family raises before the type check is met too; then every
    template and mutation op at the point."""
    yield PatchOp("Remove", point)
    pools = [harvest_ingredients(unit, point, scope).entries for scope in SCOPES]
    for ingredient in {id(entry): entry for entries in pools for entry in entries}.values():
        for kind in ("Replace", "InsertBefore"):
            yield PatchOp(kind, point, {"ingredient": ingredient})
    for mode in ("jpar", "jmutrepair"):
        yield from enumerate_ops(mode, point, unit)


def made_by(make, unit, op):
    """(skip class, child) of making `op`'s child with `make`."""
    try:
        child, _ = make(unit, op, random.Random(0))
    except PatchSkip as skip:
        return type(skip), None
    return None, child


def assert_checks_are_exact(unit, counter):
    """Every op of every point: the skip class and the child are the
    full-copy reference's, and a `TypeCheckFailed` comes with no copy
    made. Returns the count of type-check failures."""
    failures = 0
    for point in all_points(unit):
        for op in every_checked_op(unit, point):
            before = counter.copies
            made = made_by(apply_patch_op, unit, op)
            assert made == made_by(apply_reference, unit, op), (op.kind, op.point, op.payload)
            if made[0] is TypeCheckFailed:
                failures += 1
                assert counter.copies == before, (op.kind, op.point, op.payload)
    return failures


def test_every_type_check_failure_is_exact_and_copy_free_on_the_merged_corpus(monkeypatch):
    counter = CopyCounter(monkeypatch)
    assert assert_checks_are_exact(merged_corpus_unit(), counter) > 0


@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_every_type_check_failure_is_exact_and_copy_free_on_random_lineages(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = CopyCounter(monkeypatch)
        for mode in MODES:
            parents = [parent for parent, _, _ in random_lineage(seed, mode, generations=3)]
            for parent in parents or [random_unit(seed)]:
                assert_checks_are_exact(parent, counter)


def test_every_type_check_failure_of_a_genprog_wide_pass_needs_no_copy(monkeypatch):
    """A pass of the benchmark's `genprog-wide` pool meets 355 type-check
    failures, and every one is raised before the copy."""
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
    assert failures == {"all": 355, "early": 355}


# --- the check itself -------------------------------------------------------


def facts_units():
    units = [load_corpus_case(name)[0] for name in corpus_case_names()]
    units.append(merged_corpus_unit())
    return units + [random_unit(seed) for seed in range(60)]


def edits(unit, statements):
    """For every point of `unit`: its function, its path and each list of
    statements an edit may put in its place: none, one of `statements`, or
    one of them followed by the point statement."""
    for sid, path, at in iter_statement_paths(unit):
        fn = unit.function(sid.function)
        yield fn, path, []
        for stmt in statements:
            yield fn, path, [stmt]
            yield fn, path, [stmt, at]


def edited_body(fn, path, written):
    """`fn` with `written` in place of the statement `path` leads to, made
    as `apply_patch_op` makes it."""
    copied, owner, block, index = copy_path(fn, path)
    block[index : index + 1] = written
    if not block and isinstance(owner, IfStmt) and owner.else_body is block:
        owner.else_body = None
    return copied


def test_returns_after_edit_matches_the_edited_body():
    """For a removal, and for a replacement by and an insertion of each of
    some statements of the unit, at every point: the answer is
    `_block_returns` of the edited body."""
    for unit in facts_units()[-20:] + facts_units()[:3]:
        statements = [stmt for _, _, stmt in iter_statement_paths(unit)][:8]
        for fn, path, written in edits(unit, statements):
            expected = _block_returns(edited_body(fn, path, written).body)
            assert returns_after_edit(fn.body, path, written) == expected


def test_check_edit_agrees_with_check_function_on_the_edited_function():
    """Any statement of the unit, fitting or not, put at any point: the
    edit is accepted exactly when `check_function` accepts the edited
    function, and the point's environment is left as it was."""
    verdicts = set()
    for unit in facts_units()[-30:] + facts_units()[:14]:
        sigs = signatures(unit)
        statements = [stmt for _, _, stmt in iter_statement_paths(unit)][::3][:12]
        for fn, path, written in edits(unit, statements):
            env = function_envs(unit, fn)[path]
            kept = dict(env)
            try:
                check_function(edited_body(fn, path, written), sigs, table=False)
                expected = None
            except CheckError:
                expected = CheckError
            try:
                check_edit(fn, path, written, env, sigs)
                got = None
            except CheckError:
                got = CheckError
            assert got is expected, (fn.name, path, written)
            assert env == kept
            verdicts.add(got)
    assert verdicts == {None, CheckError}


def point_at(unit, function, index):
    sid = StatementId(function, index)
    return ModificationPoint(sid, path_of(unit, sid))


def ingredient_at(unit, function, index):
    """The ingredient of `unit` whose statement is `function`'s `index`th."""
    fn = unit.function(function)
    return operators.function_ingredients(unit, fn)[index]


def assert_rejected_before_the_copy(monkeypatch, unit, op):
    counter = CopyCounter(monkeypatch)
    assert made_by(apply_reference, unit, op)[0] is TypeCheckFailed
    with pytest.raises(TypeCheckFailed):
        apply_patch_op(unit, op, random.Random(0))
    assert counter.copies == 0


def test_an_ingredient_that_redeclares_or_nests_too_deep_is_rejected_before_the_copy(monkeypatch):
    unit = parse(
        "fn f(x: int) -> int {\n  let y = x;\n  if (x > 0) {\n    let z = 1;\n    x = z;\n  }\n"
        "  return y;\n}\n"
    )
    guarded = ingredient_at(unit, "f", 1)  # the `if`, which declares `z`
    # before `let y`, `z` is unbound: admitted, and its child is kept
    apply_patch_op(unit, PatchOp("InsertBefore", point_at(unit, "f", 0), {"ingredient": guarded}))
    # inside the `if`, after `let z`, the `let z` of the copy is a redeclaration
    for kind in ("InsertBefore", "Replace"):
        op = PatchOp(kind, point_at(unit, "f", 3), {"ingredient": guarded})
        assert_rejected_before_the_copy(monkeypatch, unit, op)
    # 40 nested `if`s: the whole nest, put at its innermost statement, nests
    # 83 levels deep, past the parser's 64
    depth = 40
    nest = "x = x + 1;"
    for _ in range(depth):
        nest = f"if (x > 0) {{ {nest} }}"
    unit = parse(f"fn g(x: int) -> int {{ {nest} return x; }}\n")
    op = PatchOp("InsertBefore", point_at(unit, "g", depth), {"ingredient": ingredient_at(unit, "g", 0)})
    assert_rejected_before_the_copy(monkeypatch, unit, op)


UNDECIDED = {
    # a `let x` replaced by a `let x` of another type, with later uses
    "retyped let": (
        "fn f(a: int, b: bool) -> int {\n  let x = a;\n  x = x + 1;\n  return x;\n}\n"
        "fn g(b: bool) -> bool {\n  let x = b;\n  return x;\n}\n",
        PatchOp("Replace", None, {"ingredient": ("g", 0)}),
        ("f", 0),
    ),
    # an `if` whose nested `return` has the wrong type
    "nested return": (
        "fn f(a: int) -> int {\n  if (a > 0) {\n    a = a - 1;\n  }\n  return a;\n}\n"
        "fn g(a: int) -> bool {\n  if (a > 0) {\n    return true;\n  }\n  return false;\n}\n",
        PatchOp("Replace", None, {"ingredient": ("g", 0)}),
        ("f", 0),
    ),
    # a `let y` inserted ahead of a later `let y` of the same block
    "later let": (
        "fn f(a: int) -> int {\n  a = a + 1;\n  let y = a;\n  return y;\n}\n",
        PatchOp("InsertBefore", None, {"ingredient": ("f", 1)}),
        ("f", 0),
    ),
    # jpar's guard around a `let` used after it
    "guarded let": (
        "fn f(v: int[]) -> int {\n  let y = v[0];\n  return y;\n}\n",
        PatchOp("TemplateGuardArrayAccess", None, {"site": 0}),
        ("f", 0),
    ),
}


@pytest.mark.parametrize("case", list(UNDECIDED))
def test_a_failure_the_old_rules_could_not_decide_is_rejected_before_the_copy(monkeypatch, case):
    """The rules that rejected jgenprog ops before their copy, before
    `check_edit` replaced them, let each of these through to the copy."""
    source, op, at = UNDECIDED[case]
    unit = parse(source)
    payload = dict(op.payload)
    if "ingredient" in payload:
        payload["ingredient"] = ingredient_at(unit, *payload["ingredient"])
    assert_rejected_before_the_copy(monkeypatch, unit, PatchOp(op.kind, point_at(unit, *at), payload))


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
