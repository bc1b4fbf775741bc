import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minirepair
from minirepair.faultloc import build_matrix
from minirepair.minilang import StatementId, interpret, parse
from minirepair.minilang.interpreter import (
    BUDGET_EXHAUSTED,
    INT_MAX,
    INT_MIN,
    RETURNED,
    RUNTIME_ERROR,
    values_equal,
)
from minirepair.minilang.nodes import Binary, Expr, Index, IntLit, Stmt, Var
from minirepair.minilang.testsuite import run_test


def ids(*indexes, fn="max"):
    return {StatementId(fn, i) for i in indexes}


def test_correct_max_trace(correct_max):
    result = interpret(correct_max, "max", [3, 5], 1000)
    assert result.status == RETURNED
    assert result.value == 5
    assert result.executed == ids(0, 1, 2, 3)
    assert result.steps_used == 4


def test_buggy_max_skips_then_branch(buggy_max):
    result = interpret(buggy_max, "max", [3, 5], 1000)
    assert result.status == RETURNED
    assert result.value == 3
    assert result.executed == ids(0, 1, 3)


def test_budget_exhaustion():
    unit = parse("fn spin() -> int { while (true) { } return 0; }")
    result = interpret(unit, "spin", [], 10)
    assert result.status == BUDGET_EXHAUSTED
    assert result.steps_used == 10


def test_step_budget_boundary():
    unit = parse("fn f() -> int { let a = 1; return a; }")
    assert interpret(unit, "f", [], 2).status == RETURNED
    assert interpret(unit, "f", [], 1).status == BUDGET_EXHAUSTED


@pytest.mark.parametrize("budget", [2.5, 1000.5, True, 0])
def test_a_step_budget_is_an_int_of_at_least_one(budget, buggy_max, max_suite):
    """As `EngineConfig` requires: a float budget never counts down to
    exactly 0, so a runaway loop would never stop, and a bool is no int.
    The function is loop-free, so an accepted budget returns. A test run
    and the coverage matrix raise the same error."""
    with pytest.raises(ValueError, match="step_budget") as direct:
        interpret(buggy_max, "max", [3, 5], budget)
    with pytest.raises(ValueError) as through_run_test:
        run_test(buggy_max, max_suite[0], budget)
    with pytest.raises(ValueError) as through_build_matrix:
        build_matrix(buggy_max, max_suite, budget)
    assert str(through_run_test.value) == str(through_build_matrix.value) == str(direct.value)


@pytest.mark.parametrize("kinds", [("int", "int"), ()])
def test_kinds_of_another_length_than_the_arguments_are_rejected(kinds):
    """`kinds` names one type per argument; any other count raises
    ValueError, as a wrong type does."""
    unit = parse("fn f(x: int) -> int { return x; }")
    with pytest.raises(ValueError, match=r"^'f': \d kinds for 1 arguments$"):
        interpret(unit, "f", [1], 100, kinds)


@pytest.mark.parametrize(
    "src,kind",
    [
        ("fn f() -> int { return 1 / 0; }", "division-by-zero"),
        ("fn f() -> int { return 1 % 0; }", "modulo-by-zero"),
        (f"fn f() -> int {{ return {INT_MAX} + 1; }}", "integer-overflow"),
        (f"fn f() -> int {{ return {INT_MIN + 1} - 2; }}", "integer-overflow"),
        ("fn f() -> int { let v = [1]; return v[3]; }", "index-out-of-bounds"),
        ("fn f() -> int { let v = [1]; return v[-1]; }", "index-out-of-bounds"),
        ("fn f() -> int { let v = [1]; v[5] = 0; return 0; }", "index-out-of-bounds"),
    ],
)
def test_runtime_errors(src, kind):
    unit = parse(src)
    result = interpret(unit, "f", [], 1000)
    assert result.status == RUNTIME_ERROR
    assert result.error_kind == kind
    assert result.error_at is not None


EDITED = "fn f(x: int, v: int[]) -> int { let y = x + 1; x = y - 2; return v[x]; }"


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda body: setattr(body[0], "value", Binary("+", Var("nowhere"), IntLit(1))), "unbound name 'nowhere'"),
        (lambda body: setattr(body[1], "name", "nowhere"), "unbound name 'nowhere'"),
        (lambda body: setattr(body[2], "value", Index("nowhere", Var("x"))), "unbound name 'nowhere'"),
        (lambda body: setattr(body[0], "value", Binary("**", Var("x"), IntLit(1))), "unknown operator '**'"),
        (lambda body: setattr(body[0], "value", Expr()), "unknown expression kind Expr"),
        (lambda body: body.insert(0, Stmt()), "unknown statement kind Stmt"),
    ],
    ids=["read", "assignment", "index", "operator", "expression", "statement"],
)
def test_a_unit_the_checker_rejects_raises_where_the_compiler_meets_it(edit, problem):
    """Units out of `parse` pass `check_unit`, so the AST is edited by
    hand. An assignment to an unbound name raises; it takes no slot as a
    `let` would."""
    unit = parse(EDITED)
    edit(unit.functions[0].body)
    with pytest.raises(ValueError, match=re.escape(f"'f': {problem};")):
        interpret(unit, "f", [1, [1, 2]], 100)


def test_a_run_traps_only_on_its_values_and_its_call_depth():
    """The checks `check_unit` makes have no trap kind in the interpreter."""
    source = "".join(path.read_text() for path in Path(minirepair.__file__).parent.rglob("*.py"))
    for kind in (
        "unbound-variable",
        "unknown-statement",
        "unknown-expression",
        "unknown-operator",
        "unknown-function",
        "missing-return",
    ):
        assert kind not in source


def test_error_attributed_to_innermost_statement():
    unit = parse("fn f(v: int[]) -> int { let t = 0; while (v[9] > 0) { t = 1; } return t; }")
    result = interpret(unit, "f", [[1]], 1000)
    assert result.error_kind == "index-out-of-bounds"
    assert result.error_at == StatementId("f", 1)


def test_short_circuit_guards_index():
    unit = parse(
        "fn f(v: int[]) -> int {"
        " let i = 0;"
        " while (i < len(v) && v[i] >= 0) { i = i + 1; }"
        " return i; }"
    )
    result = interpret(unit, "f", [[1, 2]], 1000)
    assert result.status == RETURNED
    assert result.value == 2


def test_short_circuit_or():
    unit = parse("fn f(x: int) -> bool { return x == 0 || 10 / x > 1; }")
    result = interpret(unit, "f", [0], 100)
    assert result.status == RETURNED and result.value is True


def test_truncating_division_and_remainder():
    unit = parse("fn d(a: int, b: int) -> int { return a / b; }")
    assert interpret(unit, "d", [-7, 2], 100).value == -3
    assert interpret(unit, "d", [7, -2], 100).value == -3
    unit = parse("fn m(a: int, b: int) -> int { return a % b; }")
    assert interpret(unit, "m", [-7, 2], 100).value == -1
    assert interpret(unit, "m", [7, -2], 100).value == 1


def test_division_overflow_edge():
    unit = parse(f"fn f() -> int {{ return (0 - {INT_MAX} - 1) / -1; }}")
    assert interpret(unit, "f", [], 100).error_kind == "integer-overflow"


def test_calls_trace_into_callee():
    src = """\
fn inc(x: int) -> int {
  return x + 1;
}

fn f(x: int) -> int {
  return inc(x) + inc(x);
}
"""
    unit = parse(src)
    result = interpret(unit, "f", [1], 100)
    assert result.value == 4
    assert result.executed == {StatementId("inc", 0), StatementId("f", 0)}
    assert result.steps_used == 3  # f's return once, inc's return twice


def test_recursion_with_budget():
    unit = parse("fn f(n: int) -> int { if (n <= 0) { return 0; } return f(n - 1) + 1; }")
    result = interpret(unit, "f", [30], 1000)
    assert result.status == RETURNED and result.value == 30


def test_runaway_recursion_hits_depth_cap():
    unit = parse("fn f(n: int) -> int { return f(n); }")
    result = interpret(unit, "f", [1], 100_000)
    assert result.status == RUNTIME_ERROR
    assert result.error_kind == "call-depth-exceeded"


def test_arrays_pass_by_reference_between_functions():
    src = """\
fn set_first(v: int[], x: int) -> int {
  v[0] = x;
  return 0;
}

fn f(v: int[]) -> int {
  set_first(v, 9);
  return v[0];
}
"""
    unit = parse(src)
    assert interpret(unit, "f", [[1, 2]], 100).value == 9


def test_caller_arguments_are_copied_per_run():
    unit = parse("fn f(v: int[]) -> int { v[0] = 99; return v[0]; }")
    arg = [1, 2]
    first = interpret(unit, "f", [arg], 100)
    second = interpret(unit, "f", [arg], 100)
    assert arg == [1, 2]
    assert first.value == second.value == 99


def test_a_tuple_array_argument_runs_as_a_list_does():
    unit = parse("fn f(a: int[]) -> int { a[0] = 5; return a[0] + a[1]; }")
    from_tuple = interpret(unit, "f", [(1, 2)], 100)
    from_list = interpret(unit, "f", [[1, 2]], 100)
    assert (from_tuple.status, from_tuple.value) == (RETURNED, 7)
    assert from_tuple == from_list


def test_bool_int_equality_is_strict():
    assert not values_equal(True, 1)
    assert not values_equal(0, False)
    assert values_equal([1, 2], [1, 2])
    assert not values_equal([1], 1)


def test_determinism(buggy_max):
    a = interpret(buggy_max, "max", [3, 5], 1000)
    b = interpret(buggy_max, "max", [3, 5], 1000)
    assert (a.status, a.value, a.executed, a.steps_used) == (
        b.status,
        b.value,
        b.executed,
        b.steps_used,
    )


COUNTDOWN = parse("fn f(n: int) -> int { while (n > 0) { n = n - 1; } return n; }")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=120))
def test_step_monotonicity(n, budget):
    """A bigger budget may only convert budget exhaustion, never change results."""
    small = interpret(COUNTDOWN, "f", [n], budget)
    big = interpret(COUNTDOWN, "f", [n], budget + 50)
    if small.status != BUDGET_EXHAUSTED:
        assert (big.status, big.value) == (small.status, small.value)
        assert big.steps_used == small.steps_used


def test_executed_nonempty_for_nonempty_body(buggy_max):
    result = interpret(buggy_max, "max", [0, 0], 1)
    assert result.executed
