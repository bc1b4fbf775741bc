"""The compiled interpreter against the tree-walking reference, also on
units that share functions and their compiled code, the loop cut, the
call-depth trap under any caller stack, and the compile cache, which is
kept on each function and filled only for functions a run enters."""

import copy
import pickle
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.engine import EngineConfig, evolve, fitness
from minirepair.minilang import SourceUnit, StatementId, interpreter, parse, testsuite
from minirepair.minilang.interpreter import BUDGET_EXHAUSTED, RETURNED, RUNTIME_ERROR, interpret
from minirepair.minilang.nodes import T_BOOL, T_INT, clone
from minirepair.operators import MODES, SCOPES, ModificationPoint, PatchOp, PatchSkip
from minirepair.operators import apply_patch_op, harvest_ingredients
from randprog import random_unit
from reference_interpreter import interpret_reference
from samples import load_corpus_case
from test_cow_variants import every_op


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_compiled_matches_reference_on_units_sharing_functions(seed):
    """A lineage of children, each sharing every function but one with its
    parent: every run matches the reference, and a shared function keeps
    the code compiled for the parent."""
    unit = random_unit(seed)
    rng = random.Random(seed)
    for generation in range(4):
        for fn in unit.functions:
            args = random_args([t for _, t in fn.params], rng)
            for budget in (7, 500):
                expected = reference(unit, fn.name, args, budget)
                assert observable(interpret(unit, fn.name, args, budget)) == observable(expected)
        ops = list(every_op(unit, rng.choice(MODES), rng.choice(SCOPES)))
        rng.shuffle(ops)
        for op in ops:
            try:
                child, _ = apply_patch_op(unit, op, rng)
            except PatchSkip:
                continue
            for old, new in zip(unit.functions, child.functions):
                assert (vars(new).get("_code") is vars(old)["_code"]) == (new is old)
            unit = child
            break
        else:
            return


CALLER_AND_CALLEE = """fn g(x: int) -> int { return x + 1; }
fn f(x: int) -> int { let y = g(x); return y * 2; }
"""


def test_a_call_finds_its_callee_in_the_running_unit():
    first = parse(CALLER_AND_CALLEE)
    other_g = parse("fn g(x: int) -> int { return x - 1; }").functions[0]
    caller = first.functions[1]
    assert assert_matches_reference(first, "f", [3], 100).value == 8
    code = vars(caller)["_code"]
    # the same compiled `f` calls whichever `g` the running unit holds
    shared = SourceUnit([other_g, caller])
    result = assert_matches_reference(shared, "f", [3], 100)
    assert result.value == 4 and vars(caller)["_code"] is code
    assert result.executed == {StatementId("g", 0), StatementId("f", 0), StatementId("f", 1)}
    # and raises when it holds none
    with pytest.raises(ValueError, match="^'f' calls 'g', which the running unit lacks$"):
        interpret(SourceUnit([caller]), "f", [3], 100)


def assert_matches_reference(unit, fn, args, budget):
    result = interpret(unit, fn, args, budget)
    assert observable(result) == observable(reference(unit, fn, args, budget))
    return result


# -- loop cut -----------------------------------------------------------------
#
# The loop cut is the closures' alone: a cut they make at header visit 17
# (the first comparison after the snapshot at 16), as in each unit below,
# is made only where the entry has not switched to the hot form by then,
# or where the hot form declines the loop (an index store, a nested loop).
# `test_hot_differential.py` runs these tests with every loop hot.


def cut_by(visit: int, builds: bool = True) -> bool:
    """Whether an entry that the closure form cuts at header visit `visit`
    is still on the closures at that visit, at the current threshold; a
    loop the hot form declines (`builds` false) always is."""
    return not builds or visit <= interpreter.HOT_LOOP_VISITS


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
    if cut_by(17):
        assert result.loop_cut_at is not None and result.loop_cut_at < 200
    else:
        assert result.loop_cut_at is None


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
    assert shared.status == BUDGET_EXHAUSTED and (shared.loop_cut_at is not None) == cut_by(17, builds=False)


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
    """The outer loop holds a `while`, so it stays on closures and is cut at
    every threshold."""
    for fn, cut in (("inner_stalls", cut_by(17)), ("outer_stalls", True)):
        result = assert_matches_reference(NESTED, fn, [3], 20_000)
        assert result.status == BUDGET_EXHAUSTED and (result.loop_cut_at is not None) == cut
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
    assert result.status == BUDGET_EXHAUSTED and (result.loop_cut_at is not None) == cut_by(17, builds=False)


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
    unit, suite, meta = load_corpus_case("double_sum_missing_add")
    assert interpret(unit, "double_sum", [[1, 2]], 100).value == 3
    point = ModificationPoint(StatementId("double_sum", 0), (("body", 0),))
    harvest_ingredients(unit, point, "global")
    config = EngineConfig(mode="jgenprog", population_size=4, max_generations=2, seed=meta["seed"])
    evolve(unit, suite, config)
    assert set(vars(unit)) == {"functions", "source_name"}
    copied = copy.deepcopy(unit)
    assert copied == unit and interpret(copied, "double_sum", [[2]], 100).value == 2
    fn = unit.functions[0]
    assert "_code" in vars(fn)
    for copied in (clone(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
        assert "_code" not in vars(copied) and copied == fn
        assert interpret(SourceUnit([copied]), "double_sum", [[3]], 100).value == 3


def test_a_function_no_test_enters_is_never_compiled():
    unit = parse("fn g(x: int) -> int { return x + 1; }\nfn f(x: int) -> int { return x * 2; }\n")
    suite = [testsuite.TestCase("doubles", "f", (3,), 7)]
    point = ModificationPoint(StatementId("g", 0), (("body", 0),))
    child, _ = apply_patch_op(unit, PatchOp("MutArithmeticOp", point, {"site": 0, "replacement": "-"}))
    assert list(fitness(child, suite, ["doubles"], 100)) == [("doubles", False)]
    edited, shared = child.functions
    assert "_code" not in vars(edited) and "_code" in vars(shared)
