"""The nesting limit holds for every unit, parsed or made by an operator.
The edge case is a unit nested exactly MAX_NESTING levels deep: an edit
that nests it further is a skip (an insert, a guard or a negation, each
checked only where it writes, agreeing with the full-function check of
the reference child maker), a search over it ends in a verdict, and the
interpreter's constant frame budget covers its deepest call stack, also
when its function is first compiled at the deepest call, or a loop there
switches to its hot form."""

import sys

import pytest

from minirepair.engine import EngineConfig, evolve
from minirepair.minilang import SourceUnit, StatementId, parse, path_of, testsuite
from minirepair.minilang import interpreter
from minirepair.minilang.interpreter import RETURNED, RUNTIME_ERROR, interpret
from minirepair.minilang.nodes import iter_depths
from minirepair.minilang.parser import MAX_NESTING
from minirepair.operators import MODES, ModificationPoint, PatchOp, TypeCheckFailed, apply_patch_op
from minirepair.operators import harvest_ingredients
from reference_children import apply_reference
from test_compiled_interpreter import observable, reference

# The assignment inside the ifs nests five more levels: `+`, the call,
# `n - 1` and `n`.
LEVELS = MAX_NESTING - 5
DEEPEST = StatementId("f", LEVELS + 1)  # after `let r` and the ifs


def deepest_unit():
    """`f(a, i, n)` returns `n * a[i]`, recursing n deep from its deepest statement."""
    text = (
        "fn f(a: int[], i: int, n: int) -> int {\n  let r = 0;\n"
        + "if (n > 0) {\n" * LEVELS
        + "r = a[i] + f(a, i, n - 1);\n"
        + "}\n" * LEVELS
        + "return r;\n}\n"
    )
    unit = parse(text, source_name="deep")
    assert max(depth for _, depth in iter_depths(unit.functions[0].body)) == MAX_NESTING
    return unit


def test_a_guard_that_nests_a_child_past_the_limit_is_a_type_check_failure():
    unit = deepest_unit()
    point = ModificationPoint(DEEPEST, path_of(unit, DEEPEST))
    op = PatchOp("TemplateGuardArrayAccess", point, {"site": 0})
    with pytest.raises(TypeCheckFailed, match=f"nesting deeper than {MAX_NESTING} levels"):
        apply_patch_op(unit, op)
    with pytest.raises(TypeCheckFailed, match=f"nesting deeper than {MAX_NESTING} levels"):
        apply_reference(unit, op)


def test_inserting_a_deep_ingredient_past_the_limit_is_a_type_check_failure():
    """The outermost `if`, inserted before the deepest statement, nests its
    whole chain below it."""
    unit = deepest_unit()
    point = ModificationPoint(DEEPEST, path_of(unit, DEEPEST))
    pool = harvest_ingredients(unit, point, "local")
    outer = next(e for e in pool.entries if e.origin == StatementId("f", 1))
    op = PatchOp("InsertBefore", point, {"ingredient": outer})
    for make in (apply_patch_op, apply_reference):
        with pytest.raises(TypeCheckFailed, match=f"nesting deeper than {MAX_NESTING} levels"):
            make(unit, op)


def nested_ifs(levels):
    """`g(n)`: `levels` nested `if (n > 0)`, the innermost one `g:levels`,
    around `r = n;`; its condition's `n` nests `levels + 2` deep."""
    text = (
        "fn g(n: int) -> int {\n  let r = 0;\n"
        + "if (n > 0) {\n" * levels
        + "r = n;\n"
        + "}\n" * levels
        + "return r;\n}\n"
    )
    unit = parse(text, source_name="ifs")
    point = ModificationPoint(StatementId("g", levels), path_of(unit, StatementId("g", levels)))
    return unit, PatchOp("MutNegateCondition", point)


def test_a_negation_past_the_limit_is_a_type_check_failure():
    unit, op = nested_ifs(MAX_NESTING - 2)
    for make in (apply_patch_op, apply_reference):
        with pytest.raises(TypeCheckFailed, match=f"nesting deeper than {MAX_NESTING} levels"):
            make(unit, op)


def test_a_negation_that_reaches_the_limit_applies():
    unit, op = nested_ifs(MAX_NESTING - 3)
    child, _ = apply_patch_op(unit, op)
    assert max(depth for _, depth in iter_depths(child.functions[0].body)) == MAX_NESTING
    assert child == apply_reference(unit, op)[0]


@pytest.mark.parametrize("mode", MODES)
def test_evolve_on_the_deepest_unit_ends_in_a_verdict(mode):
    unit = deepest_unit()
    suite = [
        testsuite.TestCase("fails", "f", ((1,), 0, 3), 4),
        testsuite.TestCase("passes", "f", ((1,), 0, 0), 0),
    ]
    config = EngineConfig(
        mode=mode,
        population_size=4,
        max_generations=4,
        ingredient_scope="global",
        step_budget=2000,
        check_lineages=True,
    )
    outcome = evolve(unit, suite, config)
    assert outcome.status in ("patch_found", "exhausted")


def test_the_deepest_call_stack_returns_under_the_default_recursion_limit():
    unit = deepest_unit()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        # 200 activations, `MAX_CALL_DEPTH`, each with its
        # closures nested MAX_NESTING deep.
        deepest = interpret(unit, "f", [[1], 0, 199], 100_000)
        beyond = interpret(unit, "f", [[1], 0, 200], 100_000)
    finally:
        sys.setrecursionlimit(limit)
    assert (deepest.status, deepest.value) == (RETURNED, 199)
    assert (beyond.status, beyond.error_kind) == (RUNTIME_ERROR, "call-depth-exceeded")


@pytest.mark.parametrize(
    "k, outcome", [(198, (RETURNED, 0, None)), (199, (RUNTIME_ERROR, None, "call-depth-exceeded"))]
)
def test_the_deepest_callee_compiled_at_the_deepest_call_matches_the_reference(k, outcome):
    """`f` is compiled when first called, on top of k + 1 activations of `g`
    (199, or 200 when the call then traps), under the default recursion
    limit."""
    deep = deepest_unit().functions[0]
    caller = parse(
        "fn g(k: int, a: int[]) -> int { if (k > 0) { return g(k - 1, a); } return f(a, 0, 0); }\n"
        "fn f(a: int[], i: int, n: int) -> int { return 0; }\n"
    ).functions[0]
    unit = SourceUnit([caller, deep])
    assert "_code" not in vars(deep)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = interpret(unit, "g", [k, [1]], 100_000)
    finally:
        sys.setrecursionlimit(limit)
    assert "_code" in vars(deep)
    assert (result.status, result.value, result.error_kind) == outcome
    assert observable(result) == observable(reference(unit, "g", [k, [1]], 100_000))


def hot_loop_unit():
    """`g(k, a)` recurses k deep and then calls `f(a, 0, 0)`, whose loop of
    1,500 visits sits in LEVELS nested ifs, its body's `a[0]` at
    MAX_NESTING."""
    deep = parse(
        "fn f(a: int[], i: int, n: int) -> int {\n  let r = 0;\n"
        + "if (n >= 0) {\n" * LEVELS
        + "while (i < 1500) {\nr = r + a[0];\ni = i + 1;\n}\n"
        + "}\n" * LEVELS
        + "return r;\n}\n"
    ).functions[0]
    assert max(depth for _, depth in iter_depths(deep.body)) == MAX_NESTING
    caller = parse(
        "fn g(k: int, a: int[]) -> int { if (k > 0) { return g(k - 1, a); } return f(a, 0, 0); }\n"
        "fn f(a: int[], i: int, n: int) -> int { return 0; }\n"
    ).functions[0]
    return SourceUnit([caller, deep])


@pytest.mark.parametrize("threshold", [1, 1024])
def test_a_hot_loop_at_the_deepest_nesting_of_the_deepest_activation(threshold, monkeypatch):
    """`f` runs on top of 199 activations of `g`, under the default
    recursion limit, and its loop switches to the hot form, which is built
    there and is one Python frame more."""
    monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", threshold)
    built = []
    build = interpreter._hot_loop
    monkeypatch.setattr(interpreter, "_hot_loop", lambda *args: built.append(build(*args)) or built[-1])
    unit = hot_loop_unit()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = interpret(unit, "g", [198, [2]], 100_000)
    finally:
        sys.setrecursionlimit(limit)
    assert len(built) == 1 and built[0] is not None
    assert (result.status, result.value) == (RETURNED, 3000)
    assert observable(result) == observable(reference(unit, "g", [198, [2]], 100_000))
