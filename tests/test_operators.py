import random

import pytest

from minirepair.minilang import (
    StatementId,
    all_statement_ids,
    iter_statements,
    parse,
    path_of,
    pretty_print,
    resolve_path,
)
from minirepair.minilang.checker import check_unit, typed_free_vars
from minirepair.minilang.testsuite import load_suite, run_test
from minirepair.operators import (
    IngredientPool,
    ModificationPoint,
    NotApplicable,
    PatchOp,
    PatchSkip,
    ScopeViolation,
    StalePoint,
    apply_patch_op,
    enumerate_ops,
    harvest_ingredients,
)

from samples import MAX_SUITE, corpus_case_names, load_corpus_case


def point_at(unit, fn, index):
    sid = StatementId(fn, index)
    path = path_of(unit, sid)
    assert path is not None
    return ModificationPoint(sid, path)


def ingredient_from(unit, fn, index):
    """Harvest the single ingredient whose origin is the given statement."""
    target = StatementId(fn, index)
    probe = point_at(unit, fn, 0 if index != 0 else 1)
    pool = harvest_ingredients(unit, probe, "global")
    for entry in pool.entries:
        if entry.origin == target:
            return entry
    raise AssertionError(f"no ingredient with origin {target}")


# --- harvesting -------------------------------------------------------------


def test_harvest_max_local(buggy_max):
    pool = harvest_ingredients(buggy_max, point_at(buggy_max, "max", 1), "local")
    assert {e.text for e in pool.entries} == {"let m = a;", "m = b;", "return m;"}
    assert len(pool.entries) == 3


def test_harvest_excludes_only_the_point_statement(buggy_max):
    pool = harvest_ingredients(buggy_max, point_at(buggy_max, "max", 0), "local")
    texts = {e.text for e in pool.entries}
    assert "let m = a;" not in texts
    assert "if (b < m) { m = b; }" in texts


def test_harvest_in_a_variant_excludes_the_statement_at_the_points_path():
    unit = parse(
        "fn f(a: int, x: int) -> int {"
        " a = a * 2; if (a > 0) { x = x - a; } x = x + 1; return x; }"
    )
    ingredient = ingredient_from(unit, "f", 0)  # a = a * 2;
    op = PatchOp("InsertBefore", point_at(unit, "f", 2), {"ingredient": ingredient})
    child, _ = apply_patch_op(unit, op)
    point = point_at(unit, "f", 4)  # `return x;`, which is f:5 in the child
    assert resolve_path(child, "f", point.path).stmt_id == StatementId("f", 5)
    texts = [e.text for e in harvest_ingredients(child, point, "local").entries]
    assert "return x;" not in texts
    assert "x = x + 1;" in texts  # f:4 in the child


def test_single_statement_function_has_empty_pool():
    unit = parse("fn f() -> int { return 1; }")
    pool = harvest_ingredients(unit, point_at(unit, "f", 0), "local")
    assert pool.entries == ()


def test_global_scope_dedups_identical_statements():
    unit = parse(
        "fn f(x: int) -> int { let d = 1; return x; }"
        " fn g(x: int) -> int { let d = 1; return x; }"
    )
    pool = harvest_ingredients(unit, point_at(unit, "f", 1), "global")
    assert [e.text for e in pool.entries].count("let d = 1;") == 1
    # and the local pool never crosses functions
    local = harvest_ingredients(unit, point_at(unit, "f", 1), "local")
    assert all(e.origin.function == "f" for e in local.entries)


def test_free_vars():
    unit = parse("fn f(a: int, b: int) -> int { let m = a; m = b; return m; }")
    stmts = dict(iter_statements(unit))
    env = {"a": "int", "b": "int", "m": "int"}
    assert typed_free_vars(stmts[StatementId("f", 0)], env) == {("a", "int")}
    assert typed_free_vars(stmts[StatementId("f", 1)], env) == {("m", "int"), ("b", "int")}


def test_free_vars_of_compound_statement(buggy_max):
    stmts = dict(iter_statements(buggy_max))
    env = {"a": "int", "b": "int", "m": "int"}
    assert typed_free_vars(stmts[StatementId("max", 1)], env) == {("b", "int"), ("m", "int")}


def test_let_binds_inside_subtree():
    unit = parse(
        "fn f(x: int) -> int { if (x > 0) { let y = x; x = y + 1; } return x; }"
    )
    stmts = dict(iter_statements(unit))
    free = typed_free_vars(stmts[StatementId("f", 0)], {"x": "int"})
    assert free == {("x", "int")}  # y is bound by the subtree's own let


# --- scope checking -----------------------------------------------------------


def in_scope(ingredient, point, unit):
    """Whether the ingredient's free variables are bound, type-compatibly,
    at the point, asked of both sides: does `enumerate_ops` offer a Replace
    with it, and does applying one pass the scope check?"""
    pool = IngredientPool((ingredient,))
    offered = any(op.kind == "Replace" for op in enumerate_ops("jgenprog", point, unit, pool))
    try:
        apply_patch_op(unit, PatchOp("Replace", point, {"ingredient": ingredient}))
        applied = True
    except ScopeViolation:
        applied = False
    except PatchSkip:  # a later check failed, so the scope check passed
        applied = True
    assert offered == applied
    return offered


def test_check_scope_accepts_bound_names(buggy_max):
    ing = ingredient_from(buggy_max, "max", 2)  # m = b;
    assert in_scope(ing, point_at(buggy_max, "max", 3), buggy_max)


def test_check_scope_rejects_unbound_names(buggy_max):
    ing = ingredient_from(buggy_max, "max", 2)  # m = b; needs m and b
    other = parse("fn g(q: int) -> int { return q; }")
    assert not in_scope(ing, point_at(other, "g", 0), other)


def test_check_scope_respects_dominance():
    unit = parse("fn f(a: int) -> int { let x = a; let y = x; return y; }")
    ing = ingredient_from(unit, "f", 1)  # let y = x;
    # at index 0, x is not yet declared
    assert not in_scope(ing, point_at(unit, "f", 0), unit)
    assert in_scope(ing, point_at(unit, "f", 1), unit)


def test_check_scope_requires_matching_types():
    unit = parse("fn f(a: int) -> int { let x = a; return x; }")
    ing = ingredient_from(unit, "f", 1)  # return x; with x: int
    other = parse("fn f(q: int) -> int { let x = true; return q; }")
    assert not in_scope(ing, point_at(other, "f", 1), other)


def test_env_before_a_statement_walks_the_block_chain(buggy_max):
    env = check_unit(buggy_max)[StatementId("max", 2)]
    assert env == {"a": "int", "b": "int", "m": "int"}


# --- statement operators (jgenprog) -------------------------------------------


def test_remove_statement(correct_max):
    # removing the if drops the whole subtree, nested assignment included
    child, _ = apply_patch_op(correct_max, PatchOp("Remove", point_at(correct_max, "max", 1)))
    assert len(all_statement_ids(child)) == 2
    suite = load_suite(MAX_SUITE, child)
    assert run_test(child, suite[0], 100)[1].value == 3  # returns a unchanged
    assert run_test(child, suite[1], 100)[1].value == 4


def test_replace_repairs_max(buggy_max, max_suite):
    donor = parse("fn max(a: int, b: int) -> int { let m = a; if (b > m) { m = b; } return m; }")
    ing = ingredient_from(donor, "max", 1)
    op = PatchOp("Replace", point_at(buggy_max, "max", 1), {"ingredient": ing})
    child, _ = apply_patch_op(buggy_max, op)
    assert all(run_test(child, t, 1000)[0] for t in max_suite)


def test_insert_before(buggy_max):
    ing = ingredient_from(buggy_max, "max", 2)  # m = b;
    op = PatchOp("InsertBefore", point_at(buggy_max, "max", 3), {"ingredient": ing})
    child, _ = apply_patch_op(buggy_max, op)
    assert len(all_statement_ids(child)) == 5
    assert "m = b;\n  return m;" in pretty_print(child)


def test_return_is_never_inserted(buggy_max):
    ing = ingredient_from(buggy_max, "max", 3)  # return m;
    op = PatchOp("InsertBefore", point_at(buggy_max, "max", 0), {"ingredient": ing})
    with pytest.raises(NotApplicable):
        apply_patch_op(buggy_max, op)


def test_scope_violation_raises(buggy_max):
    foreign = parse("fn g(z: int[]) -> int { let s = z[0]; return s; }")
    ing = ingredient_from(foreign, "g", 0)
    op = PatchOp("InsertBefore", point_at(buggy_max, "max", 0), {"ingredient": ing})
    with pytest.raises(ScopeViolation):
        apply_patch_op(buggy_max, op)


def test_stale_point_raises(buggy_max):
    point = ModificationPoint(StatementId("max", 9), (("body", 9),))
    with pytest.raises(StalePoint):
        apply_patch_op(buggy_max, PatchOp("Remove", point))
    with pytest.raises(StalePoint):
        enumerate_ops("jmutrepair", point, buggy_max)


def test_unknown_kind_is_not_applicable(buggy_max):
    with pytest.raises(NotApplicable, match="unknown operation kind"):
        apply_patch_op(buggy_max, PatchOp("Rename", point_at(buggy_max, "max", 0)))


def test_type_check_failure_raises(buggy_max):
    # removing the only return leaves a path without a return
    op = PatchOp("Remove", point_at(buggy_max, "max", 3))
    with pytest.raises(PatchSkip):
        apply_patch_op(buggy_max, op)


# --- templates (jpar) -----------------------------------------------------------


def test_guard_array_access():
    unit = parse("fn f(v: int[], i: int) -> int { let s = 0; s = v[i]; return s; }")
    op = PatchOp("TemplateGuardArrayAccess", point_at(unit, "f", 1), {"site": 0})
    child, concrete = apply_patch_op(unit, op, random.Random(0))
    assert "if (i >= 0 && i < len(v)) {" in pretty_print(child)
    assert "s = v[i];" in pretty_print(child)
    assert concrete.payload["array"] == "v"


def test_guard_wraps_index_assignment():
    unit = parse("fn f(v: int[], i: int) -> int { v[i] = 1; return 0; }")
    op = PatchOp("TemplateGuardArrayAccess", point_at(unit, "f", 0), {"site": 0})
    child, _ = apply_patch_op(unit, op, random.Random(0))
    assert "if (i >= 0 && i < len(v)) {" in pretty_print(child)


def test_guard_not_applicable_without_access(buggy_max):
    op = PatchOp("TemplateGuardArrayAccess", point_at(buggy_max, "max", 0), {"site": 0})
    with pytest.raises(NotApplicable):
        apply_patch_op(buggy_max, op, random.Random(0))


def test_condition_term_removal():
    unit = parse("fn f(x: int, y: int) -> int { while (x > 0 && y > 0) { x = x - 1; } return x; }")
    op = PatchOp(
        "TemplateMutateConditionTerm",
        point_at(unit, "f", 0),
        {"action": "remove", "keep": "lhs"},
    )
    child, _ = apply_patch_op(unit, op)
    assert "while (x > 0) {" in pretty_print(child)


def test_condition_term_removal_needs_compound_condition():
    unit = parse("fn f(x: int) -> int { while (x > 0) { x = x - 1; } return x; }")
    op = PatchOp(
        "TemplateMutateConditionTerm",
        point_at(unit, "f", 0),
        {"action": "remove", "keep": "rhs"},
    )
    with pytest.raises(NotApplicable):
        apply_patch_op(unit, op)


def test_condition_term_addition_draws_in_scope_variables():
    unit = parse("fn f(x: int) -> int { while (x > 0) { x = x - 1; } return x; }")
    op = PatchOp("TemplateMutateConditionTerm", point_at(unit, "f", 0))
    child, concrete = apply_patch_op(unit, op, random.Random(3))
    assert concrete.payload["action"] == "add"
    assert concrete.payload["lhs"] == "x" and concrete.payload["rhs"] == "x"
    text = pretty_print(child)
    assert "while (x > 0 &&" in text or "while (x > 0 ||" in text


def test_swap_call_argument():
    unit = parse(
        "fn g(a: int, b: int) -> int { return a - b; }"
        " fn f(a: int, b: int) -> int { return g(a, a); }"
    )
    op = PatchOp("TemplateSwapCallArg", point_at(unit, "f", 0), {"site": 0})
    seen = set()
    for seed in range(8):
        child, concrete = apply_patch_op(unit, op, random.Random(seed))
        seen.add(pretty_print(child).splitlines()[-2].strip())
        assert concrete.payload["var_name"] == "b"
    assert seen <= {"return g(b, a);", "return g(a, b);"}
    assert len(seen) == 2  # both positions reachable depending on the stream


def test_swap_call_argument_not_applicable_without_calls(buggy_max):
    op = PatchOp("TemplateSwapCallArg", point_at(buggy_max, "max", 0), {"site": 0})
    with pytest.raises(NotApplicable):
        apply_patch_op(buggy_max, op, random.Random(0))


# --- mutations (jmutrepair) -------------------------------------------------------


def test_relational_swap_repairs_max(buggy_max, max_suite):
    op = PatchOp(
        "MutRelationalOp",
        point_at(buggy_max, "max", 1),
        {"site": 0, "replacement": ">"},
    )
    child, concrete = apply_patch_op(buggy_max, op)
    assert all(run_test(child, t, 1000)[0] for t in max_suite)
    assert concrete.payload["original"] == "<"


def test_logical_swap():
    unit = parse("fn f(p: bool, q: bool) -> int { if (p && q) { return 1; } return 0; }")
    op = PatchOp("MutLogicalOp", point_at(unit, "f", 0), {"site": 0})
    child, _ = apply_patch_op(unit, op)
    assert "if (p || q) {" in pretty_print(child)


def test_arithmetic_swap():
    unit = parse("fn f(a: int, b: int) -> int { return a - b; }")
    op = PatchOp("MutArithmeticOp", point_at(unit, "f", 0), {"site": 0, "replacement": "+"})
    child, _ = apply_patch_op(unit, op)
    assert "return a + b;" in pretty_print(child)


def test_negate_condition(buggy_max, max_suite):
    op = PatchOp("MutNegateCondition", point_at(buggy_max, "max", 1))
    child, _ = apply_patch_op(buggy_max, op)
    assert "if (!(b < m)) {" in pretty_print(child)
    assert all(run_test(child, t, 1000)[0] for t in max_suite)


def test_mutation_not_applicable(buggy_max):
    op = PatchOp("MutRelationalOp", point_at(buggy_max, "max", 3), {"site": 0, "replacement": ">"})
    with pytest.raises(NotApplicable):
        apply_patch_op(buggy_max, op)  # `return m;` has no relational site


def test_mutation_sites_exclude_nested_statements(buggy_max):
    # the if header owns only its condition; the nested assignment is its own point
    ops = enumerate_ops("jmutrepair", point_at(buggy_max, "max", 2), buggy_max)
    assert ops == []


# --- enumeration ------------------------------------------------------------------


def test_enumerate_mutations_at_max_condition(buggy_max):
    ops = enumerate_ops("jmutrepair", point_at(buggy_max, "max", 1), buggy_max)
    kinds = [op.kind for op in ops]
    assert kinds.count("MutRelationalOp") == 5
    assert kinds.count("MutNegateCondition") == 1
    assert len(ops) == 6


def test_enumerate_genprog_at_max(buggy_max):
    point = point_at(buggy_max, "max", 1)
    pool = harvest_ingredients(buggy_max, point, "local")
    ops = enumerate_ops("jgenprog", point, buggy_max, pool)
    kinds = [op.kind for op in ops]
    assert kinds.count("Remove") == 1
    assert kinds.count("Replace") == 3
    assert kinds.count("InsertBefore") == 2  # the return ingredient is replace-only
    assert len(ops) == 6


def test_enumerate_empty_when_nothing_applies():
    unit = parse("fn f(x: int) -> int { return x; }")
    point = point_at(unit, "f", 0)
    assert enumerate_ops("jmutrepair", point, unit) == []
    assert enumerate_ops("jpar", point, unit) == []


def test_enumerate_jpar_kinds():
    unit = parse(
        "fn g(a: int) -> int { return a; }"
        " fn f(v: int[], i: int) -> int {"
        " if (i > 0 && v[i] > g(i)) { return 1; }"
        " return 0; }"
    )
    ops = enumerate_ops("jpar", point_at(unit, "f", 0), unit)
    kinds = sorted(op.kind for op in ops)
    assert kinds == [
        "TemplateGuardArrayAccess",
        "TemplateMutateConditionTerm",
        "TemplateSwapCallArg",
    ]


# --- cross-cutting properties -------------------------------------------------------


def random_op_stream(units, count, seed):
    """Draw (unit, op) pairs across programs, mimicking the engine's draws."""
    rng = random.Random(seed)
    drawn = 0
    while drawn < count:
        unit = rng.choice(units)
        sids = all_statement_ids(unit)
        sid = rng.choice(sids)
        point = ModificationPoint(sid, path_of(unit, sid))
        mode = rng.choice(("jgenprog", "jpar", "jmutrepair"))
        pool = (
            harvest_ingredients(unit, point, rng.choice(("local", "global")))
            if mode == "jgenprog"
            else None
        )
        ops = enumerate_ops(mode, point, unit, pool) if pool else enumerate_ops(mode, point, unit)
        if not ops:
            continue
        drawn += 1
        yield unit, rng.choice(ops), rng


def corpus_units():
    return [load_corpus_case(name)[0] for name in corpus_case_names()]


def test_applies_never_touch_the_parent():
    units = corpus_units()
    for unit, op, rng in random_op_stream(units, 150, seed=5):
        before = pretty_print(unit)
        try:
            apply_patch_op(unit, op, rng)
        except PatchSkip:
            pass
        assert pretty_print(unit) == before


def test_children_type_check_or_raise_declared_skips():
    units = corpus_units()
    produced = 0
    for unit, op, rng in random_op_stream(units, 300, seed=11):
        try:
            child, _ = apply_patch_op(unit, op, rng)
        except PatchSkip:
            continue
        check_unit(child)
        reparsed = parse(pretty_print(child), source_name="child")
        assert reparsed == child
        produced += 1
    assert produced > 100


def test_concrete_ops_are_reproducible():
    units = corpus_units()
    for unit, op, rng in random_op_stream(units, 120, seed=23):
        try:
            child_one, concrete = apply_patch_op(unit, op, rng)
        except PatchSkip:
            continue
        child_two, _ = apply_patch_op(unit, concrete)
        assert pretty_print(child_one) == pretty_print(child_two)


def test_logical_swap_is_an_involution():
    unit = parse("fn f(p: bool, q: bool) -> int { if (p && q) { return 1; } return 0; }")
    op = PatchOp("MutLogicalOp", point_at(unit, "f", 0), {"site": 0})
    once, _ = apply_patch_op(unit, op)
    op_again = PatchOp("MutLogicalOp", point_at(once, "f", 0), {"site": 0})
    twice, _ = apply_patch_op(once, op_again)
    assert pretty_print(twice) == pretty_print(unit)


def test_double_negation_is_semantically_neutral(buggy_max, max_suite):
    op = PatchOp("MutNegateCondition", point_at(buggy_max, "max", 1))
    once, _ = apply_patch_op(buggy_max, op)
    twice, _ = apply_patch_op(once, PatchOp("MutNegateCondition", point_at(once, "max", 1)))
    for test in max_suite:
        assert run_test(twice, test, 1000)[1].value == run_test(buggy_max, test, 1000)[1].value


def test_trace_entry_shape(buggy_max):
    op = PatchOp(
        "MutRelationalOp",
        point_at(buggy_max, "max", 1),
        {"site": 0, "replacement": ">"},
    )
    _, concrete = apply_patch_op(buggy_max, op)
    concrete.generation = 4
    entry = concrete.trace_entry()
    assert entry == {
        "kind": "MutRelationalOp",
        "statement_id": "max:1",
        "payload_summary": "operator `<` -> `>`",
        "generation": 4,
    }
