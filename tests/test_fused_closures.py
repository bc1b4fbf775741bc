"""Stores, divisions, comparisons and lets of the closure compiler,
against the tree-walking reference, at every step budget from 1 to the
run's full step count: the closures' step order, coverage and trap sites
are the reference's, and their loop cut fires where `STALLS` below says.
The shapes are the ones a search runs most: `x = y op c`, `x = y op v[i]`,
`i < len(v)`, `e % c`, `e == c`. The module keeps its name from when the
compiler fused such shapes into one closure each."""

import pytest

from minirepair.minilang import SourceUnit, parse
from minirepair.minilang.checker import check_unit
from minirepair.minilang.interpreter import BUDGET_EXHAUSTED, INT_MAX, INT_MIN, interpret
from minirepair.minilang.nodes import Binary, IntLit, Var
from test_compiled_interpreter import cut_by, observable, reference

BIG = 100_000


def assert_every_budget_matches(unit, fn, args):
    """Run `fn(args)` at every budget from 1 to one past the reference's
    full step count; returns the full run's result."""
    full = reference(unit, fn, args, BIG)
    assert full.status != BUDGET_EXHAUSTED
    for budget in range(1, full.steps_used + 2):
        result = interpret(unit, fn, args, budget)
        assert observable(result) == observable(reference(unit, fn, args, budget)), budget
        assert result.loop_cut_at is None
    return full


STORES = parse(
    """\
fn add_constant(x: int) -> int {
  let i = 0;
  while (i < 4) {
    x = x + 1;
    i = i + 1;
  }
  return x;
}

fn subtract_element(x: int, v: int[]) -> int {
  let i = 0;
  while (i < len(v)) {
    x = x - v[i];
    i = i + 1;
  }
  return x;
}

fn add_past_end(x: int, v: int[]) -> int {
  let i = 0;
  while (i <= len(v)) {
    x = x + v[i];
    i = i + 1;
  }
  return x;
}

fn subtract_expression(x: int, d: int) -> int {
  let i = 0;
  while (i < 3) {
    x = x - (d + i);
    let y = x * 2;
    i = i + 1;
  }
  return x;
}

fn subtract_variable(x: int, d: int) -> int {
  let n = 3;
  while (n > 0) {
    x = x - d;
    n = n - 1;
  }
  return x;
}
"""
)


@pytest.mark.parametrize(
    "fn, args",
    [
        ("add_constant", [INT_MAX - 2]),
        ("add_constant", [INT_MAX - 3]),
        ("add_constant", [-5]),
        ("subtract_element", [INT_MIN + 5, [2, 3, 1]]),
        ("subtract_element", [INT_MAX, [-1, 4]]),
        ("subtract_element", [0, []]),
        ("add_past_end", [0, [1, 2]]),
        ("add_past_end", [0, []]),
        ("subtract_expression", [INT_MIN + 1, 0]),
        ("subtract_expression", [INT_MIN + 1, -1]),
        ("subtract_expression", [INT_MAX // 2, -1]),
        ("subtract_variable", [INT_MIN + 2, 1]),
        ("subtract_variable", [INT_MAX - 1, -1]),
        ("subtract_variable", [10, 4]),
    ],
)
def test_fused_stores_trap_where_the_reference_does(fn, args):
    assert_every_budget_matches(STORES, fn, args)


def test_stores_reach_the_overflow_they_are_meant_to():
    for fn, args in (("add_constant", [INT_MAX - 2]), ("subtract_element", [INT_MIN + 5, [2, 3, 1]])):
        result = interpret(STORES, fn, args, BIG)
        assert result.error_kind == "integer-overflow"


DIVISIONS = parse(
    """\
fn by_constant(x: int) -> int {
  let q = x / 3;
  let m = x % 3;
  let e = (x - 1) / 4 + (x - 1) % 4;
  if (x % 2 == 0) {
    q = q + 100;
  }
  return q * 10 + m + e + x / 1 + x % 1 + (x / 2) * 7 + x % 5;
}

fn by_variable(x: int, d: int) -> int {
  let q = x / d;
  let m = x % d;
  return q * 10 + m;
}

fn by_zero(x: int) -> int {
  let m = x % 0;
  return m;
}

fn div_by_zero(x: int) -> int {
  let q = x / 0;
  return q;
}

fn stored_divisions(x: int) -> int {
  let i = 0;
  while (i < 3) {
    x = x / 2;
    let y = x % 5;
    i = i + 1;
  }
  return x;
}
"""
)


@pytest.mark.parametrize("x", [-7, -6, -1, 0, 1, 5, 7, INT_MIN, INT_MAX])
def test_constant_divisors_match_reference(x):
    for fn in ("by_constant", "by_zero", "div_by_zero", "stored_divisions"):
        assert_every_budget_matches(DIVISIONS, fn, [x])


@pytest.mark.parametrize("x, d", [(-7, 2), (7, -2), (-7, -2), (-7, 0), (INT_MIN, -1), (INT_MIN, 3)])
def test_variable_divisors_match_reference(x, d):
    assert_every_budget_matches(DIVISIONS, "by_variable", [x, d])


def with_divisor(divisor: int) -> SourceUnit:
    """`x / c` and `x % c` with a literal divisor `c`, which may be one the
    parser never makes (it reads `-3` as a negation)."""
    unit = parse("fn f(x: int) -> int { let q = x; let m = x; return q * 10 + m; }")
    q, m, _ = unit.functions[0].body
    q.value = Binary("/", Var("x"), IntLit(divisor))
    m.value = Binary("%", Var("x"), IntLit(divisor))
    check_unit(unit)
    return unit


@pytest.mark.parametrize("divisor", [-3, 0, 3])
def test_literal_divisors_of_any_sign_match_reference(divisor):
    for x in (-7, 7, INT_MIN):
        assert_every_budget_matches(with_divisor(divisor), "f", [x])


NESTED_LETS = parse(
    """\
fn f(n: int, v: int[]) -> int {
  let t = n;
  if (n > 0) {
    let u = t * 2;
    t = u + 1;
  } else {
    let u = t - 3;
    t = u % 4;
  }
  let i = 0;
  while (i < len(v)) {
    let w = t + v[i];
    if (w > 10) {
      let z = w - 10;
      t = z;
    }
    t = w;
    i = i + 1;
  }
  return t;
}
"""
)


@pytest.mark.parametrize("n, v", [(3, [1, 9, 2]), (-4, [5]), (0, []), (INT_MAX, [1])])
def test_let_in_a_nested_block_next_to_an_outer_binding(n, v):
    assert_every_budget_matches(NESTED_LETS, "f", [n, v])


def test_a_let_reads_the_outer_binding_of_its_own_name():
    """`let t = t + 1` in a nested block: the checker rejects the shadowing,
    so the AST is edited by hand. Its value still reads the outer `t`, as
    in the reference, because operands resolve before the let binds."""
    unit = parse("fn f(t: int) -> int { if (t > 0) { let u = t + 1; t = u * 3; } return t; }")
    let = unit.functions[0].body[0].then_body[0]
    let.name = "t"
    for t in (-1, 4):
        assert_every_budget_matches(unit, "f", [t])


COMPARISONS = parse(
    """\
fn eq(x: int, b: bool, v: int[]) -> int {
  let c = 0;
  if (x == 3) {
    c = c + 1;
  }
  if (x != 3) {
    c = c + 2;
  }
  if (3 == x) {
    c = c + 4;
  }
  if (x % 2 == 0) {
    c = c + 8;
  }
  if (x - 1 != 0) {
    c = c + 16;
  }
  if (b == true) {
    c = c + 32;
  }
  if (b != false) {
    c = c + 64;
  }
  if (v == v) {
    c = c + 128;
  }
  if (x == len(v)) {
    c = c + 256;
  }
  return c;
}

fn ordered(x: int, y: int, v: int[]) -> int {
  let c = 0;
  if (x < y) {
    c = c + 1;
  }
  if (3 < x) {
    c = c + 2;
  }
  if (len(v) >= x) {
    c = c + 4;
  }
  if (x * 2 > y) {
    c = c + 8;
  }
  if (x + 1 <= len(v)) {
    c = c + 16;
  }
  if (y <= x - 1) {
    c = c + 32;
  }
  if (len(v) > 1) {
    c = c + 64;
  }
  let i = 0;
  while (i < len(v) && v[i] > 0) {
    i = i + 1;
  }
  return c * 10 + i;
}
"""
)


@pytest.mark.parametrize("x", [-3, 0, 1, 2, 3, 4])
def test_equality_against_a_constant(x):
    for b in (True, False):
        assert_every_budget_matches(COMPARISONS, "eq", [x, b, [1, 2, 3]])


def test_equality_never_meets_an_argument_of_the_wrong_type():
    """`interpret` rejects a bool where an int is declared, as a scalar or
    as an element, before anything runs: inside a run a bool never meets
    an int, so `==` and `!=` test no type. Arguments of the declared
    types match the reference at every budget."""
    unit = parse(
        """\
fn f(x: int, v: int[]) -> int {
  let c = 0;
  if (x == 1) {
    c = c + 1;
  }
  if (x != 1) {
    c = c + 2;
  }
  if (v[0] == 1) {
    c = c + 4;
  }
  if (v[0] != 1) {
    c = c + 8;
  }
  return c;
}
"""
    )
    for args, name in (([True, [1]], "x"), ([1, [True]], "v")):
        with pytest.raises(ValueError, match=f"argument '{name}' must have type int"):
            interpret(unit, "f", args, 1_000)
    assert assert_every_budget_matches(unit, "f", [1, [2]]).value == 9


def test_operands_that_may_trap_keep_their_order():
    """`v[i] == x / d` with both operands trapping traps at the element,
    which runs first."""
    unit = parse(
        """\
fn f(v: int[], i: int, x: int, d: int) -> bool {
  let b = v[i] == x / d;
  let c = x / d < v[i];
  return b && c;
}
"""
    )
    for args in ([[1], 3, 1, 0], [[1], 0, 1, 0], [[1], 3, 1, 1], [[2], 0, 4, 2]):
        assert_every_budget_matches(unit, "f", args)
    assert interpret(unit, "f", [[1], 3, 1, 0], BIG).error_kind == "index-out-of-bounds"


@pytest.mark.parametrize("x, y", [(1, 2), (2, 1), (4, 4), (-1, 7)])
def test_ordered_comparisons_with_pure_operands_on_either_side(x, y):
    for v in ([], [5, 1, -2], [1, 2, 3, 4]):
        assert_every_budget_matches(COMPARISONS, "ordered", [x, y, v])


CALL_IN_LOOP = parse(
    """\
fn g(x: int) -> int {
  let k = 0;
  while (k < x) {
    k = k + 1;
  }
  return k;
}

fn f(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t + g(v[i]);
    i = i + 1;
  }
  return t;
}
"""
)


def test_coverage_of_a_loop_that_calls_a_looping_function():
    assert_every_budget_matches(CALL_IN_LOOP, "f", [[2, 0, 3]])


# The loop cut of a loop body of stores. `loop_cut_at` is the step count
# at which the cut fired, as the closures count it (the reference has no
# cut), at header visit 17. The hot form makes no cut, so a run switched
# to it by then is cut only where it hands the entry back and the
# closures, which finish the entry with the visits and the cut the switch
# left them, find the snapshot's state again: a true repeat, no earlier
# than the closure form's cut (`count_stalled` switched at 16 is cut at
# budgets 70, 74, ... 98, with fewer steps left than an iteration may
# charge).
STALLS = parse(
    """\
fn sum_stalled(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t * 1;
    i = i * 1;
  }
  return t;
}

fn count_stalled(v: int[]) -> int {
  let c = 0;
  let i = 0;
  while (i < len(v)) {
    if (v[i] % 2 == 1) {
      c = c + 1;
    }
    let d = c - v[i];
    i = i % 1;
  }
  return c;
}
"""
)


@pytest.mark.parametrize("fn, cut_at", [("sum_stalled", 53), ("count_stalled", 70)])
def test_loop_cut_fires_at_the_same_step_at_every_budget(fn, cut_at):
    args = [[2, 3]]
    for budget in range(1, cut_at + 30):
        result = interpret(STALLS, fn, args, budget)
        expected = reference(STALLS, fn, args, budget)
        assert observable(result) == observable(expected), budget
        if budget < cut_at or not cut_by(17):
            assert result.loop_cut_at is None or cut_at <= result.loop_cut_at <= budget, budget
        else:
            assert result.loop_cut_at == cut_at, budget
    assert interpret(STALLS, fn, args, BIG).loop_cut_at == (cut_at if cut_by(17) else None)


def test_unbound_operands_trap_where_the_reference_does():
    """An unbound variable traps when it is read; units out of `parse`
    never hold one, so the AST is edited by hand."""
    unit = parse("fn f(x: int) -> int { let y = x + 1; x = x - 2; return x; }")
    let, assign, _ = unit.functions[0].body
    let.value = Binary("+", Var("nowhere"), IntLit(1))
    assign.value = Binary("-", Var("x"), Var("nowhere"))
    for budget in range(1, 4):
        result = interpret(unit, "f", [1], budget)
        assert observable(result) == observable(reference(unit, "f", [1], budget))
    assert interpret(unit, "f", [1], 3).error_kind == "unbound-variable"

