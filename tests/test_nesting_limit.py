"""The nesting limit holds for every unit, parsed or made by an operator.
The edge case is a unit nested exactly MAX_NESTING levels deep: an edit
that nests it further is a skip, a search over it ends in a verdict, and
the interpreter's constant frame budget covers its deepest call stack."""

import sys

import pytest

from minirepair.engine import EngineConfig, evolve
from minirepair.minilang import StatementId, parse, path_of, testsuite
from minirepair.minilang.interpreter import RETURNED, RUNTIME_ERROR, interpret
from minirepair.minilang.nodes import iter_depths
from minirepair.minilang.parser import MAX_NESTING
from minirepair.operators import MODES, ModificationPoint, PatchOp, TypeCheckFailed, apply_patch_op

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
