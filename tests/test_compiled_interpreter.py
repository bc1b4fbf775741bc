"""The compiled interpreter against the tree-walking reference, the loop
cut, the call-depth trap under any caller stack, and the compile cache."""

import copy
import pickle
import random
import sys
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.minilang import parse
from minirepair.minilang.interpreter import BUDGET_EXHAUSTED, RETURNED, RUNTIME_ERROR, interpret
from minirepair.minilang.nodes import T_BOOL, T_INT
from randprog import random_unit
from reference_interpreter import interpret_reference


@contextmanager
def deep_stack_allowed():
    """The reference needs several Python frames per MiniLang call."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 20_000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def reference(unit, fn, args, budget):
    with deep_stack_allowed():
        return interpret_reference(unit, fn, args, budget)


def observable(result):
    return (
        result.status,
        type(result.value),
        result.value,
        result.error_kind,
        result.error_at,
        result.executed,
        result.steps_used,
    )


def random_args(param_types, rng):
    args = []
    for type_ in param_types:
        if type_ == T_INT:
            args.append(rng.randint(-3, 12))
        elif type_ == T_BOOL:
            args.append(rng.random() < 0.5)
        else:
            args.append([rng.randint(-2, 9) for _ in range(rng.randint(0, 4))])
    return args


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_compiled_matches_reference(seed):
    unit = random_unit(seed)
    rng = random.Random(seed)
    for fn in unit.functions:
        args = random_args([t for _, t in fn.params], rng)
        for budget in (1, 7, 60, 500):
            expected = reference(unit, fn.name, args, budget)
            assert observable(interpret(unit, fn.name, args, budget)) == observable(expected)


def assert_matches_reference(unit, fn, args, budget):
    result = interpret(unit, fn, args, budget)
    assert observable(result) == observable(reference(unit, fn, args, budget))
    return result


# -- loop cut -----------------------------------------------------------------

STALLED_INDEX = parse(
    """\
fn f(v: int[]) -> int {
  let i = 0;
  while (i < len(v)) {
    i = i * 1;
  }
  return i;
}
"""
)


def test_loop_whose_state_repeats_is_cut():
    result = assert_matches_reference(STALLED_INDEX, "f", [[1, 2, 3]], 100_000)
    assert result.status == BUDGET_EXHAUSTED
    assert result.steps_used == 100_000
    assert result.loop_cut_at is not None and result.loop_cut_at < 200


def test_accumulator_loop_is_not_cut():
    unit = parse(
        """\
fn f(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t - v[i];
    i = i * 1;
  }
  return t;
}
"""
    )
    result = assert_matches_reference(unit, "f", [[1, 2, 3]], 5_000)
    assert result.status == BUDGET_EXHAUSTED
    assert result.loop_cut_at is None


ALIAS_TOGGLE = parse(
    """\
fn f() -> int {
  let a = [0];
  let b = [0];
  let n = 0;
  while (n < 100) {
    b[0] = 7;
    if (a[0] == 7) {
      n = n + 1;
      a[0] = 0;
      b = [0];
    } else {
      b = a;
    }
    b[0] = 0;
  }
  return n;
}
"""
)


def test_equal_values_with_other_sharing_are_not_a_repeat():
    # Header visits 2k + 1 and 2k + 2 bind equal values (a = [0], b = [0],
    # n = k), but only at 2k + 2 do a and b share one array. The loop ends.
    result = assert_matches_reference(ALIAS_TOGGLE, "f", [], 5_000)
    assert (result.status, result.value, result.loop_cut_at) == (RETURNED, 100, None)


ALIAS_SWITCH = parse(
    """\
fn f(shared: bool) -> int {
  let a = [0];
  let b = [0];
  if (shared) {
    b = a;
  }
  while (a[0] < 40) {
    b[0] = b[0] - 1;
    a[0] = a[0] + 1;
  }
  return a[0];
}
"""
)


def test_runs_differing_only_in_sharing():
    separate = assert_matches_reference(ALIAS_SWITCH, "f", [False], 5_000)
    assert (separate.status, separate.value) == (RETURNED, 40)
    shared = assert_matches_reference(ALIAS_SWITCH, "f", [True], 5_000)
    assert shared.status == BUDGET_EXHAUSTED and shared.loop_cut_at is not None


NESTED = parse(
    """\
fn inner_stalls(n: int) -> int {
  let i = 0;
  while (i < n) {
    let j = 0;
    while (j < n) {
      j = j * 1;
    }
    i = i + 1;
  }
  return i;
}

fn outer_stalls(n: int) -> int {
  let i = 0;
  while (i < n) {
    let j = 0;
    while (j < n) {
      j = j + 1;
    }
    i = i * 1;
  }
  return i;
}

fn both_end(n: int) -> int {
  let i = 0;
  let t = 0;
  while (i < n) {
    let j = 0;
    while (j < n) {
      j = j + 1;
      t = t + 1;
    }
    i = i + 1;
  }
  return t;
}
"""
)


def test_nested_loops():
    for fn in ("inner_stalls", "outer_stalls"):
        result = assert_matches_reference(NESTED, fn, [3], 20_000)
        assert result.status == BUDGET_EXHAUSTED and result.loop_cut_at is not None
    result = assert_matches_reference(NESTED, "both_end", [30], 20_000)
    assert (result.status, result.value, result.loop_cut_at) == (RETURNED, 900, None)


def test_loop_inside_recursive_call():
    unit = parse(
        """\
fn g(n: int, v: int[]) -> int {
  if (n > 0) {
    return g(n - 1, v) + 1;
  }
  let i = 0;
  while (i < len(v)) {
    v[i] = v[i] * 1;
  }
  return i;
}
"""
    )
    result = assert_matches_reference(unit, "g", [5, [4, 5]], 50_000)
    assert result.status == BUDGET_EXHAUSTED and result.loop_cut_at is not None


# -- call depth -----------------------------------------------------------------

COUNT_DOWN = parse(
    """\
fn f(n: int) -> int {
  if (n <= 0) {
    return 0;
  }
  return 1 + f(n - 1);
}
"""
)


def call_at_depth(extra_frames, thunk):
    if extra_frames <= 0:
        return thunk()
    return call_at_depth(extra_frames - 1, thunk)


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_call_depth_trap_fires_before_the_host_stack_runs_out():
    deep = sys.getrecursionlimit() - stack_depth() - 40
    for extra in (0, deep):
        for n in (170, 199):
            result = call_at_depth(extra, lambda: interpret(COUNT_DOWN, "f", [n], 100_000))
            assert (result.status, result.value) == (RETURNED, n)
        result = call_at_depth(extra, lambda: interpret(COUNT_DOWN, "f", [250], 100_000))
        assert (result.status, result.error_kind) == (RUNTIME_ERROR, "call-depth-exceeded")
        assert result.steps_used == 400  # 200 calls, two statements each


def test_recursion_limit_is_restored():
    limit = sys.getrecursionlimit()
    interpret(COUNT_DOWN, "f", [250], 100_000)
    assert sys.getrecursionlimit() == limit


# -- compile cache ----------------------------------------------------------------


def test_compiled_code_stays_with_the_unit():
    unit = parse("fn f(x: int) -> int { return x + 1; }")
    assert interpret(unit, "f", [1], 10).value == 2
    assert "_compiled" in vars(unit)
    clone = copy.deepcopy(unit)
    assert "_compiled" not in vars(clone)
    assert clone == unit and interpret(clone, "f", [2], 10).value == 3
    assert "_compiled" not in vars(pickle.loads(pickle.dumps(unit)))
