"""Hot loops: a loop entry that reaches `HOT_LOOP_VISITS` header visits runs
the rest of the entry as one compiled Python function, with exactly the
results, steps, coverage, traps and loop cut of the closures: every pinned
report of the benchmark's pools holds with every loop hot. The counts
check that the hot form does the same loop-cut work, that a loop is built
once per compiled function and that a run whose loops stay short builds
nothing; loops the emitter does not take stay on closures. Budgets that
run out at every offset of an iteration check the hand-back to the
closures and the steps charged per block, and the generated text shows
which array lengths are read once per entry, that the budget is tested
once per segment and which checks are left out: bounds the header
implies, identities such as `x * 1`, type tests of `==` against a
constant and the general division by a length. The random programs of
the differential tests are shown to reach each of those shapes.
`test_hot_differential.py` runs the closure form's own differential tests
with every loop hot."""

import cProfile
import io
import pstats
import random
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from minirepair.engine import EngineConfig, evolve
from minirepair.minilang import hotloop, interpreter, parse
from minirepair.minilang.hotloop import Declined, loop_source
from minirepair.minilang.interpreter import BUDGET_EXHAUSTED, RETURNED, interpret
from minirepair.minilang.nodes import INT_MAX, INT_MIN, Binary, LetStmt, Var, clone
from minirepair.minilang.testsuite import run_test
from randprog import random_unit
from test_compiled_interpreter import observable, random_args, reference
from test_pinned_reports import test_every_pool_job_reproduces_its_pinned_report as assert_pinned

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

COLD = 10**9


@pytest.fixture
def hot_at_once(monkeypatch):
    """Every loop entry switches after its first header visit."""
    monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", 1)


@pytest.fixture
def builds(monkeypatch):
    """Every hot form built while the test runs: the function, or None
    for a declined loop."""
    built = []
    build = interpreter._hot_loop

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(interpreter, "_hot_loop", counting)
    return built


@pytest.fixture
def sources(monkeypatch):
    """The text of every hot loop the emitter writes while the test runs."""
    written = []
    write = hotloop.loop_source

    def recording(*args):
        written.append(write(*args))
        return written[-1]

    monkeypatch.setattr(hotloop, "loop_source", recording)
    return written


@pytest.mark.parametrize("workload", ["loop-mut", "genprog-wide", "corpus-default"])
def test_pinned_reports_hold_with_every_loop_hot(workload, hot_at_once):
    assert_pinned(workload)


# -- the same work, counted ------------------------------------------------------

LONG_LOOPS = """\
fn stalls(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t + v[i] * 0;
    v[i] = v[i] % 7;
    i = i * 1;
  }
  return t;
}

fn sums(n: int, v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    if (i % 3 == 0) {
      let d = v[i % len(v)];
      t = t + d;
    } else {
      t = t - 1;
    }
    i = i + 1;
  }
  return t;
}

fn runs_out(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t - v[i];
    i = i * 1;
  }
  return t;
}

fn overflows(x: int) -> int {
  let i = 0;
  while (i >= 0) {
    x = x * 2 + 1;
    i = i + 1;
  }
  return x;
}

fn returns(n: int) -> int {
  let i = 0;
  while (true) {
    if (i == n) {
      return i * 2;
    }
    i = i + 1;
  }
  return 0;
}
"""

CALLS = [
    ("stalls", [[3, 9, 14]], 100_000),
    ("sums", [5_000, [4, -2, 7]], 100_000),
    ("sums", [5_000, [4, -2, 7]], 12_345),
    ("runs_out", [[1, 2, 3]], 30_000),
    ("overflows", [3], 100_000),
    ("returns", [3_000], 100_000),
]


@pytest.mark.parametrize("fn, args, budget", CALLS)
def test_the_loop_cut_does_the_same_work_at_every_threshold(fn, args, budget, monkeypatch):
    """The shared cut compares as often as in the closure form, whatever the
    threshold: the switch hands the entry's cut to the hot form before the
    first snapshot (1), on a snapshot visit (16, 32, 1,024), inside a
    comparison window (20, 80, 81, 1,025) or between windows (200)."""
    counts = {}
    results = {}
    matches = interpreter._Cut.matches
    for at in (COLD, 1, 16, 20, 32, 80, 81, 200, 1024, 1025):
        calls = []
        monkeypatch.setattr(interpreter._Cut, "matches", lambda cut, L: calls.append(1) or matches(cut, L))
        monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", at)
        results[at] = interpret(parse(LONG_LOOPS), fn, args, budget)
        counts[at] = len(calls)
    assert counts[COLD] > 0
    assert set(counts.values()) == {counts[COLD]}
    cold = results[COLD]
    for result in results.values():
        assert observable(result) == observable(cold)
        assert result.loop_cut_at == cold.loop_cut_at
    assert observable(cold) == observable(reference(parse(LONG_LOOPS), fn, args, budget))


def test_the_calls_reach_what_they_are_meant_to():
    unit = parse(LONG_LOOPS)
    outcomes = [interpret(unit, fn, args, budget) for fn, args, budget in CALLS]
    assert outcomes[0].loop_cut_at is not None
    assert [o.status for o in outcomes[1:3]] == [RETURNED, BUDGET_EXHAUSTED]
    assert outcomes[3].status == BUDGET_EXHAUSTED and outcomes[3].loop_cut_at is None
    assert outcomes[4].error_kind == "integer-overflow"
    assert outcomes[5].value == 6_000


def test_a_loop_is_built_once_per_compiled_function(builds):
    """At the default threshold."""
    unit = parse(LONG_LOOPS)
    for n in (10, 20, 3_000):
        assert interpret(unit, "sums", [n, [1, 2]], 100_000).status == RETURNED
    assert len(builds) == 1 and builds[0] is not None
    # a copy of the function is compiled anew, and so is its loop
    copied = parse(LONG_LOOPS)
    copied.functions[1] = clone(unit.functions[1])
    interpret(copied, "sums", [3_000, [1]], 100_000)
    assert len(builds) == 2


def test_a_run_whose_loops_stay_short_builds_nothing(builds):
    """The merged `genprog-wide` unit at its budget of 2,000 steps, in every
    job of the benchmark's pool: every header visit costs at least two
    steps, so no loop reaches 1,024 visits."""
    [(unit, suite)] = worker.load_targets("genprog-wide").values()
    for test in suite:
        run_test(unit, test, 2_000)
    for job in workloads.job_pool("genprog-wide"):
        assert job.engine_kwargs()["step_budget"] == 2_000
        evolve(unit, suite, EngineConfig(**job.engine_kwargs()))
    assert builds == []


# -- declines and safety ---------------------------------------------------------

DECLINED = """\
fn g(x: int) -> int {
  return x + 1;
}

fn calls(n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    t = g(t);
    i = i + 1;
  }
  return t;
}

fn nests(n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    let j = 0;
    while (j < i) {
      t = t + j;
      j = j + 1;
    }
    i = i + 1;
  }
  return t;
}
"""


def assert_every_budget_matches(unit, fn, args):
    full = reference(unit, fn, args, 100_000)
    for budget in range(1, full.steps_used + 2):
        assert observable(interpret(unit, fn, args, budget)) == observable(reference(unit, fn, args, budget))


def test_a_loop_with_a_call_stays_on_closures(hot_at_once, builds):
    unit = parse(DECLINED)
    assert_every_budget_matches(unit, "calls", [6])
    assert builds == [None]


def test_an_inner_loop_tiers_up_on_its_own(hot_at_once, builds):
    unit = parse(DECLINED)
    assert_every_budget_matches(unit, "nests", [5])
    assert len(builds) == 2 and builds.count(None) == 1
    with pytest.raises(Declined):
        loop_source(unit.functions[2].body[2], {"n": 0, "t": 1, "i": 2}, 3, 2)


def test_a_loop_naming_an_unbound_variable_stays_on_closures(hot_at_once, builds):
    """Units out of `parse` never name one, so the AST is edited by hand."""
    unit = parse(
        "fn f(x: int) -> int { let i = 0; while (i < 3) { if (i == 2) { x = x + 1; } i = i + 1; } return x; }"
    )
    unit.functions[0].body[1].body[0].then_body[0].value = Binary("+", Var("x"), Var("nowhere"))
    assert_every_budget_matches(unit, "f", [1])
    assert interpret(unit, "f", [1], 100).error_kind == "unbound-variable"
    assert builds == [None]


def test_a_compile_that_raises_leaves_the_loop_on_closures(monkeypatch, hot_at_once, builds):
    def failing(*args, **kwargs):
        raise SyntaxError("too many statically nested blocks")

    monkeypatch.setattr(interpreter, "compile", failing, raising=False)
    unit = parse(LONG_LOOPS)
    for fn, args, budget in CALLS[1:3]:
        assert observable(interpret(unit, fn, args, budget)) == observable(reference(unit, fn, args, budget))
    assert builds == [None]


COLLIDING = """\
fn f(L: int[], r: int) -> int {
  let left = 0;
  let hit = 0;
  let visits = 0;
  while (visits < len(L)) {
    let r2 = L[visits] * r;
    if (r2 % 2 == 0) {
      hit = hit + 1;
    } else {
      left = left - r2;
      L[visits] = left;
    }
    visits = visits + 1;
  }
  return left * 100 + hit + L[0];
}
"""


def test_names_the_generated_code_uses_do_not_collide(hot_at_once):
    unit = parse(COLLIDING)
    for args in ([[1, 2, 3, 4, 5], 3], [[], 1], [[7], 2]):
        assert_every_budget_matches(unit, "f", args)
    loop = unit.functions[0].body[3]
    source = loop_source(loop, {"L": 0, "r": 1, "left": 2, "hit": 3, "visits": 4}, 5, 3)
    tokens = {t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)}
    assert tokens.isdisjoint({"L", "r", "left", "hit", "visits", "r2"})
    assert re.findall(r"\bs\d+\b", source)  # slots stand for the names


def hot_calls(profile) -> dict[str, int]:
    """Calls of each hot loop in `profile`, by filename."""
    return {file: stat[1] for (file, _, name), stat in pstats.Stats(profile).stats.items() if name == "hot"}


def test_each_hot_loop_profiles_under_its_own_statement(hot_at_once):
    """A hot loop compiles under a filename naming its statement id and its
    build, so a profile keeps one entry per loop."""
    unit = parse(LONG_LOOPS)
    profile = cProfile.Profile()
    for fn, args, budget in (CALLS[1], CALLS[3], CALLS[1], CALLS[3]):
        profile.runcall(interpret, unit, fn, args, budget)
    hot = hot_calls(profile)
    assert sorted(re.sub(r" #\d+>$", ">", file) for file in hot) == ["<hot loop runs_out:2>", "<hot loop sums:2>"]
    assert list(hot.values()) == [2, 2]


def test_the_hot_loops_of_two_variants_of_one_function_profile_apart(hot_at_once):
    """Two variants of `sums` share the statement id of their loop; each
    build has its own filename, so the profile keeps both."""
    variants = [parse(LONG_LOOPS), parse(LONG_LOOPS.replace("t = t - 1;", "t = t - 2;"))]
    profile = cProfile.Profile()
    for unit in variants + variants:
        profile.runcall(interpret, unit, *CALLS[1])
    hot = hot_calls(profile)
    assert len(hot) == 2 and list(hot.values()) == [2, 2]
    assert all(re.fullmatch(r"<hot loop sums:2 #\d+>", file) for file in hot)


# -- the budget: one test per iteration, steps charged per block -----------------

CHARGED = """\
fn charges_one_branch(v: int[], n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    if (v[i % len(v)] > 2) {
      t = t + v[i % len(v)];
      v[i % len(v)] = t % 5;
      t = t - 1;
    } else {
    }
    i = i + 1;
  }
  return t;
}

fn returns_from_a_branch(n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < 100) {
    t = t + i;
    if (i == n) {
      t = t * 2;
      return t;
    }
    t = t - 1;
    i = i + 1;
  }
  return t;
}

fn overflows_in_a_branch(x: int) -> int {
  let i = 0;
  while (i < 100) {
    if (i > 2) {
      x = x * 100000;
      i = i + 1;
    } else {
      i = i + 1;
    }
    x = x + 1;
  }
  return x;
}
"""


@pytest.mark.parametrize(
    "fn, args",
    [
        ("charges_one_branch", [[1, 4, 3, 0, 5], 7]),
        ("charges_one_branch", [[0], 6]),
        ("returns_from_a_branch", [5]),
        ("overflows_in_a_branch", [7]),
    ],
)
def test_the_budget_runs_out_at_every_offset_of_an_iteration(fn, args, hot_at_once, builds, sources):
    """Each budget ends the run at another statement of an iteration: the
    hot form hands the entry back when one iteration's most steps no longer
    fit, and the closures finish it. A trap, a `return` and the header's
    exit give back the steps charged ahead of them. The budget is tested
    once per segment, before its `for`, and never inside it."""
    unit = parse(CHARGED)
    assert_every_budget_matches(unit, fn, args)
    assert builds and None not in builds
    for source in sources:
        assert "_BudgetExhausted" not in source
        assert source.count("steps_left //") == 1
        segment = source.split("for _ in range(m):")[1].split("\n        else:")[0]
        assert "steps_left <" not in segment and "steps_left //" not in segment


def test_the_calls_charge_what_they_are_meant_to():
    unit = parse(CHARGED)
    assert interpret(unit, "charges_one_branch", [[1, 4, 3, 0, 5], 7], 1_000).status == RETURNED
    assert interpret(unit, "returns_from_a_branch", [5], 1_000).value == 2 * (15 - 5)
    overflow = interpret(unit, "overflows_in_a_branch", [7], 1_000)
    assert overflow.error_kind == "integer-overflow" and overflow.error_at.index == 3


# -- fixed lengths ------------------------------------------------------------------

LENGTHS = """\
fn rebinds(v: int[], w: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t + v[i];
    if (i == 1) {
      v = w;
    }
    i = i + 1;
  }
  return t;
}

fn shadows(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    if (i > 0) {
      let u = [i, i];
      t = t + u[1];
    }
    t = t + v[i];
    i = i + 1;
  }
  return t;
}

fn writes(v: int[]) -> int {
  let i = 0;
  while (i < len(v)) {
    v[i] = v[i] * 2 + len(v);
    i = i + 1;
  }
  return v[len(v) - 1];
}

fn aliases(v: int[]) -> int {
  let w = v;
  let i = 0;
  let t = 0;
  while (i < len(w)) {
    w[i] = i;
    t = t + v[i] * len(v);
    i = i + 1;
  }
  return t;
}
"""


@pytest.mark.parametrize(
    "fn, args, reads",
    [
        ("rebinds", [[1, 2, 3], [5, 6, 7, 8, 9]], True),
        ("rebinds", [[1, 2, 3], [5]], True),
        ("shadows", [[4, 5, 6]], True),
        ("writes", [[3, 1, 4]], False),
        ("aliases", [[7, 8, 9, 10]], False),
    ],
)
def test_a_length_is_read_once_unless_the_loop_rebinds_its_name(fn, args, reads, hot_at_once, sources):
    """An array never changes length, so a name bound at the header that
    the loop neither assigns nor `let`s again has one length for the whole
    entry, loaded before the iteration; other lengths are read at each use.
    `shadows` has its `let u` renamed to `v` by hand, since the checker
    rejects shadowing."""
    unit = parse(LENGTHS)
    if fn == "shadows":
        branch = unit.functions[1].body[2].body[0].then_body
        assert isinstance(branch[0], LetStmt)
        branch[0].name = branch[1].value.rhs.name = "v"
    assert_every_budget_matches(unit, fn, args)
    [source] = sources
    iteration = source.split("while True:")[1]
    assert ("len(" in iteration) == reads


# -- segments ---------------------------------------------------------------------

SEGMENTS = """\
fn long_run(v: int[], n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    if (i % 3 == 0) {
      t = t + v[i % len(v)];
    }
    i = i + 1;
  }
  return t;
}
"""


def test_segments_end_at_every_budget_inside_and_outside_the_cut_windows(hot_at_once, builds, sources):
    """A segment runs as many iterations as neither the budget nor the next
    cut check can interrupt. Over 300 visits the checks fall in windows of
    one visit each (after the snapshots at 16, 32, 64, 128 and 256) and far
    apart between them (193 to 256); an iteration that skips its branch
    charges less than the most, so a segment the budget ends may be
    followed by another. Every budget hands the entry back at another
    offset. (A cut inside a segment's run is
    `test_the_loop_cut_does_the_same_work_at_every_threshold`.)"""
    assert_every_budget_matches(parse(SEGMENTS), "long_run", [[1, 2, 3], 300])
    assert builds and None not in builds
    [source] = sources
    assert "for _ in range(m):" in source


# -- bounds the header implies ------------------------------------------------------

BOUNDS = """\
fn walks_back(v: int[], i: int) -> int {
  let t = 0;
  while (i < len(v)) {
    t = t + v[i];
    i = i - 1;
  }
  return t;
}

fn walks_back_the_other_way_round(v: int[], i: int) -> int {
  let t = 0;
  while (len(v) > i) {
    t = t + v[i];
    i = i - 1;
  }
  return t;
}

fn steps_first(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    i = i + 1;
    t = t + v[i];
  }
  return t;
}

fn steps_in_a_branch(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    if (t > 5) {
      i = i + 1;
    }
    t = t + v[i];
    i = i + 1;
  }
  return t;
}

fn stores_after_a_step(v: int[]) -> int {
  let i = 0;
  while (i < len(v)) {
    v[i] = v[i] + 1;
    i = i + 1;
    v[i] = 0;
  }
  return v[0];
}

fn stops_early(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (len(v) > i && t < 12) {
    t = t + v[i];
    i = i + 1;
  }
  return t;
}

fn either_side(v: int[], n: int) -> int {
  let t = 0;
  let i = 0;
  while (n > i - 2 && i < len(v)) {
    v[i] = t;
    t = t + v[i] + 1;
    i = i + 1;
  }
  return t;
}
"""


@pytest.mark.parametrize(
    "fn, args, reduced, full",
    [
        ("walks_back", [[4, 5, 6], 2], 1, 0),
        ("walks_back", [[7], 0], 1, 0),
        ("walks_back_the_other_way_round", [[4, 5, 6], 2], 1, 0),
        ("steps_first", [[3, 4, 5]], 0, 1),
        ("steps_in_a_branch", [[3, 4, 5, 6, 7]], 0, 1),
        ("steps_in_a_branch", [[1, 1, 1, 1]], 0, 1),
        ("stores_after_a_step", [[3, 4, 5]], 2, 1),
        ("stops_early", [[2, 3, 4, 5]], 1, 0),
        ("stops_early", [[5, 5, 5, 5, 5]], 1, 0),
        ("either_side", [[1, 2, 3, 4], 9], 2, 0),
        ("either_side", [[1, 2, 3, 4], 2], 2, 0),
    ],
)
def test_a_bound_the_header_implies_holds_until_the_index_is_stored(fn, args, reduced, full, hot_at_once, sources):
    """Under `i < len(v)` or `len(v) > i`, alone or as a conjunct of an `&&`
    header, with `v` of fixed length, `v[i]` and `v[i] = e` test only
    `i >= 0` until the first store to `i`, in the body or in a branch;
    after it they test the full bound. A negative `i` still traps."""
    assert_every_budget_matches(parse(BOUNDS), fn, args)
    [source] = sources
    assert len(re.findall(r"if s\d+ < 0:", source)) == reduced
    assert len(re.findall(r"if not 0 <= s\d+ < ", source)) == full


def test_the_bound_calls_reach_what_they_are_meant_to():
    unit = parse(BOUNDS)
    assert interpret(unit, "walks_back", [[4, 5, 6], 2], 1_000).error_kind == "index-out-of-bounds"
    assert interpret(unit, "walks_back", [[7], 0], 1_000).error_kind == "index-out-of-bounds"
    for fn, args in [("steps_first", [[3, 4, 5]]), ("steps_in_a_branch", [[3, 4, 5, 6, 7]])]:
        assert interpret(unit, fn, args, 1_000).error_kind == "index-out-of-bounds"
    assert interpret(unit, "stores_after_a_step", [[3, 4, 5]], 1_000).error_kind == "index-out-of-bounds"
    assert interpret(unit, "stops_early", [[5, 5, 5, 5, 5]], 1_000).value == 15


# -- arithmetic that cannot trap ----------------------------------------------------

FOLDS = """\
fn folds(x: int, v: int[]) -> int {
  let y = 0;
  let i = 0;
  while (i < len(v)) {
    if (x OP == 0 || len(v) != 3) {
      y = v[i] OP;
    } else {
      y = x OP;
    }
    i = i + 1;
  }
  return y;
}

fn folds_what_traps(x: int, v: int[]) -> int {
  let y = 0;
  let i = 0;
  while (i < len(v)) {
    y = (x + i) OP - (x - i) OP;
    y = v[i + 1] OP;
    i = i + 1;
  }
  return y;
}
"""

IDENTITIES = ["* 1", "/ 1", "+ 0", "- 0", "% 1"]


@pytest.mark.parametrize("identity", IDENTITIES)
@pytest.mark.parametrize("x", [INT_MIN, INT_MAX, 0, -7, 6, True])
@pytest.mark.parametrize("fn", ["folds", "folds_what_traps"])
def test_identities_fold_after_the_checks_of_their_operand(fn, x, identity, hot_at_once, sources):
    """`x * 1`, `x / 1`, `x + 0` and `x - 0` read as `x` and `x % 1` as 0,
    at the extremes of the int range too, while `(x + i) * 1` still
    overflows and `v[i + 1] * 1` still runs out of bounds. A bool passed
    for `x` or held in `v` comes out an int, as the closures' arithmetic
    makes it, and `==` against a constant drops its type test only for an
    arithmetic result or a length."""
    unit = parse(FOLDS.replace("OP", identity))
    for v in ([5, -3, 8], [True, 2]):
        assert_every_budget_matches(unit, fn, [x, v])
    operand = r"(\b[stn]\d+|[)\]])"
    assert not re.search(rf"{operand} (\*|//|%) 1\b|{operand} [-+] 0\b", "".join(sources))


@pytest.mark.parametrize("identity, typed", [("* 1", False), ("% 1", False), ("", True)])
def test_only_an_int_by_its_shape_drops_the_type_test(identity, typed, hot_at_once, sources):
    """`x * 1 == 0` and `len(v) != 3` compare without a type test; `x == 0`
    keeps it."""
    interpret(parse(FOLDS.replace("OP", identity)), "folds", [0, [1, 2]], 1_000)
    [source] = sources
    assert ("type(" in source) == typed


# -- lengths as divisors -------------------------------------------------------------

DIVISORS = """\
fn wraps(v: int[], i: int, k: int) -> int {
  let t = 0;
  while (i < 6) {
    if (i > k) {
      t = t + v[i % len(v)] * 10 + i / len(v);
    }
    i = i + 1;
  }
  return t;
}

fn splits(v: int[], i: int, k: int) -> int {
  let t = 0;
  while (i < 6) {
    if (i > k) {
      t = t + i / len(v) + i % len(v);
      v = v;
    }
    i = i + 1;
  }
  return t;
}
"""


@pytest.mark.parametrize("fn", ["wraps", "splits"])
@pytest.mark.parametrize("v", [[4, -2, 7], [9], []])
def test_a_length_divides_as_a_positive_constant_past_its_zero_check(fn, v, hot_at_once, sources):
    """A nonzero length is positive: after the zero-divisor trap, `/` and
    `%` by a length take the constant path, on negative dividends too. The
    branch first runs hot, so an empty `v` traps in the hot form."""
    assert_every_budget_matches(parse(DIVISORS), fn, [v, -5, -4])
    [source] = sources
    assert "abs(" not in source


# -- the random programs reach each shape ---------------------------------------------


def implied_bounds_kept(source: str) -> list[bool]:
    """For each index `i` of a header bound `i < len(v)` (either way round)
    that the hot text `source` reads as `v[i]` with only `i >= 0`: whether
    a full check of `v[i]` follows, after a store to `i`."""
    header = source.split("for _ in range(m):")[1].split("break")[0]
    pairs = re.findall(r"\((s\d+) < (n\d+)\)", header) + [(i, n) for n, i in re.findall(r"\((n\d+) > (s\d+)\)", header)]
    kept = []
    for index, length in pairs:
        reduced = source.find(f"if {index} < 0:")
        if reduced >= 0:
            kept.append(f"if not 0 <= {index} < {length}:" in source[reduced:])
    return kept


def test_random_programs_reach_the_shapes_the_hot_form_treats_apart(hot_at_once, sources, monkeypatch):
    """The derandomized differential tests run 400 random units each, at
    budgets up to 500 and 2,000 steps, with every loop hot. Run the same
    way, seeds 0-399 build hot loops of at least 1 % of the units with each
    shape: a `v[i]` read or written with only `i >= 0` under the header's
    `i < len(v)`, one read with the full check after a store to `i`, and
    each of the five identities folded."""
    folded = []
    identity = hotloop._Emitter.identity

    def recording(emitter, expr, into):
        folded.append(f"{expr.op} {expr.rhs.value}")
        return identity(emitter, expr, into)

    monkeypatch.setattr(hotloop._Emitter, "identity", recording)
    reached = Counter()
    for seed in range(400):
        sources.clear()
        folded.clear()
        unit = random_unit(seed)
        rng = random.Random(seed)
        for fn in unit.functions:
            interpret(unit, fn.name, random_args([t for _, t in fn.params], rng), 500)
        shapes = set(folded)
        for source in sources:
            kept = implied_bounds_kept(source)
            shapes |= {"implied bound"} if kept else set()
            shapes |= {"full bound after a store"} if any(kept) else set()
        reached.update(shapes)
    shapes = ["implied bound", "full bound after a store", "* 1", "/ 1", "% 1", "+ 0", "- 0"]
    assert all(reached[shape] >= 4 for shape in shapes), reached
