"""Hot loops: a loop entry that reaches `HOT_LOOP_VISITS` header visits runs
the rest of the entry as one compiled Python function, with exactly the
results, steps, coverage and traps of the closures: every pinned report of
the benchmark's pools holds with every loop hot, and no hot text knows the
loop cut. The counts check that the cut compares on the closure form's
visits up to the switch and on none after it (a state that first repeats
after the switch runs to the budget hot), that a loop is built once
per compiled function, that `compile()` runs once per statement and
text, and that the original programs' suites build nothing; loops
outside the hot language stay on closures, and the pools' only such
loops hold a nested `while`.
Budgets that run out at every offset of an iteration check the hand-back
to the closures and the steps charged per segment and per branch, and
the generated text shows that the budget is tested once per segment and
which checks are left out: bounds the header implies, identities such
as `x * 1` and an accumulator's overflow test under its segment cap; no
text tests a type, since `interpret` rejects an argument of the wrong
type at entry, at every threshold alike. The random programs of
`random_hot_unit` are shown to reach each of those shapes.
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
from minirepair.minilang.nodes import INT_MAX, INT_MIN, clone
from minirepair.minilang.testsuite import run_test
from randprog import random_hot_unit
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


@pytest.fixture
def declines(monkeypatch):
    """The reason of every `Declined` the emitter raises while the test runs."""
    reasons = []
    write = hotloop.loop_source

    def recording(*args):
        try:
            return write(*args)
        except Declined as declined:
            reasons.append(str(declined))
            raise

    monkeypatch.setattr(hotloop, "loop_source", recording)
    return reasons


@pytest.mark.parametrize("workload", ["loop-mut", "genprog-wide", "corpus-default"])
def test_pinned_reports_hold_with_every_loop_hot(workload, hot_at_once, sources, declines):
    """Every loop the pool's candidates run is in the hot language: only a
    loop that holds a nested `while` declines."""
    assert_pinned(workload)
    assert sources and set(declines) <= {"WhileStmt"}
    assert_tests_no_type(sources)
    assert_knows_no_cut(sources)


@pytest.mark.parametrize("workload", ["loop-mut", "genprog-wide", "corpus-default"])
def test_pinned_reports_hold_with_every_loop_cold(workload, monkeypatch, builds):
    """The closures alone, long loops included, reproduce every report."""
    monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", COLD)
    assert_pinned(workload)
    assert builds == []


def assert_tests_no_type(sources: list[str]) -> None:
    """A value has its static type, so no hot text tests one (`type(`) or
    makes an int of an operand (`(+`)."""
    for source in sources:
        assert "type(" not in source and "(+" not in source, source


def assert_knows_no_cut(sources: list[str]) -> None:
    """The loop cut is the closures' alone: `hot` takes no visit count or
    cut, and no text names either."""
    for source in sources:
        assert source.startswith("def hot(frame, run, marks):\n"), source
        assert not re.search("cut|check_at|nvisits", source), source


def segment(source: str) -> str:
    """The text of the `for` that runs one segment's iterations in the hot
    loop `source`: the header and the body, up to the `for`'s `else`."""
    return source.split("for j in range(m - 1, -1, -1):\n")[1].split("\n        else:")[0]


# -- the same work, counted ------------------------------------------------------

LONG_LOOPS = """\
fn stalls(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t + v[i] * 0;
    let r = v[i] % 7;
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
    }
    if (i % 3 != 0) {
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
    """The cut is the closures' alone: whatever the threshold, they compare
    on exactly the visits the closure form compares on up to the switch,
    and the hot form compares on none. The switch comes before the first
    snapshot (1), on a snapshot visit (16, 32, 64, 1,024), inside a
    comparison window (20, 65, 80, 81, 1,025) or between windows (200).
    Results are those of the closure form, and so is `loop_cut_at` when
    its cut fires by the switch; a later cut is not made."""
    compared = {}
    results = {}
    check, matches = interpreter._Cut.check, interpreter._Cut.matches
    for at in (COLD, 1, 16, 20, 32, 64, 65, 80, 81, 200, 1024, 1025):
        visits, calls = [], []
        monkeypatch.setattr(interpreter._Cut, "check", lambda cut, L, n: visits.append(n) or check(cut, L, n))
        monkeypatch.setattr(interpreter._Cut, "matches", lambda cut, L: calls.append(visits[-1]) or matches(cut, L))
        monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", at)
        results[at] = interpret(parse(LONG_LOOPS), fn, args, budget)
        compared[at] = calls
    assert compared[COLD]
    cold = results[COLD]
    for at, result in results.items():
        assert compared[at] == [n for n in compared[COLD] if n <= at], at
        assert observable(result) == observable(cold)
        cut_by_the_switch = cold.loop_cut_at is not None and compared[COLD][-1] <= at
        assert result.loop_cut_at == (cold.loop_cut_at if cut_by_the_switch else None), at
    assert observable(cold) == observable(reference(parse(LONG_LOOPS), fn, args, budget))


CLAMPS = """\
fn clamps(n: int) -> int {
  let i = 0;
  while (i < n) {
    if (i > 100) {
      i = 100;
    }
    i = i + 1;
  }
  return i;
}
"""


def test_a_state_that_first_repeats_after_the_switch_runs_to_the_budget(monkeypatch):
    """The header state of `clamps` repeats from visit 101 on, so the closure
    form cuts at visit 129, in the window after the snapshot at 128. The
    default threshold switches to the hot form at 64, which runs the entry
    to the budget: the same result, steps and coverage, and no cut."""
    unit = parse(CLAMPS)
    hot = interpret(unit, "clamps", [1_000], 100_000)
    monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", COLD)
    cold = interpret(unit, "clamps", [1_000], 100_000)
    assert observable(hot) == observable(cold)
    assert hot.status == BUDGET_EXHAUSTED and hot.steps_used == 100_000
    assert cold.loop_cut_at is not None and hot.loop_cut_at is None


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
    """Every corpus case's suite at its `meta.json` budget, and the merged
    `genprog-wide` unit's at 2,000 steps: no loop of an original program
    reaches 64 visits, so only candidates that loop longer tier up."""
    for workload in ("corpus-default", "genprog-wide"):
        targets = worker.load_targets(workload)
        for job in workloads.job_pool(workload):
            unit, suite = targets[job.target]
            budget = EngineConfig(**job.engine_kwargs()).step_budget
            for test in suite:
                run_test(unit, test, budget)
    assert builds == []


def test_a_pool_pass_compiles_each_hot_loop_once(builds, monkeypatch):
    """A `genprog-wide` pool pass: its candidates that loop past 64 visits
    build their hot loops, and `compile()` runs once per (statement id,
    text); every other build reuses the cached code."""
    compiled = []

    def counting(source, filename, mode):
        compiled.append((re.sub(r" #\d+>$", ">", filename), source))
        return compile(source, filename, mode)

    monkeypatch.setattr(interpreter, "compile", counting, raising=False)
    [(unit, suite)] = worker.load_targets("genprog-wide").values()
    for job in workloads.job_pool("genprog-wide"):
        evolve(unit, suite, EngineConfig(**job.engine_kwargs()))
    assert None not in builds and len(builds) > len(compiled) > 0
    assert sorted(compiled) == sorted((f"<hot loop {sid}>", text) for sid, text in interpreter._HOT_CODE)


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

fn stores(v: int[]) -> int {
  let i = 0;
  while (i < len(v)) {
    v[i] = v[i] * 2;
    i = i + 1;
  }
  return v[0];
}

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

fn branches(n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    if (i % 2 == 0) {
      t = t + i;
    } else {
      t = t - 1;
    }
    i = i + 1;
  }
  return t;
}

fn evaluates(n: int) -> int {
  let i = 0;
  while (i < n) {
    i + 1 / (n - 1 - i);
    i = i + 1;
  }
  return i;
}

fn makes(n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    let u = [i, t];
    t = t + u[1] + 1;
    i = i + 1;
  }
  return t;
}

fn measures(n: int) -> int {
  let t = 0;
  let i = 0;
  while (i < n) {
    t = t + len([i, t]);
    i = i + 1;
  }
  return t;
}
"""


def assert_every_budget_matches(unit, fn, args):
    full = reference(unit, fn, args, 100_000)
    for budget in range(1, full.steps_used + 2):
        assert observable(interpret(unit, fn, args, budget)) == observable(reference(unit, fn, args, budget))


@pytest.mark.parametrize(
    "fn, args, reason",
    [
        ("calls", [6], "Call"),
        ("stores", [[3, 1, 4]], "IndexAssignStmt"),
        ("rebinds", [[1, 2, 3], [5, 6, 7, 8]], "rebound array 'v'"),
        ("branches", [6], "IfStmt"),
        ("evaluates", [6], "ExprStmt"),
        ("makes", [4], "ArrayLit"),
        ("measures", [4], "Len"),
    ],
)
def test_a_loop_outside_the_hot_language_stays_on_closures(fn, args, reason, hot_at_once, builds, declines):
    """A call, an index store, a read of an array the loop rebinds, an
    `else`, an expression statement, an array literal or `len` of one
    keeps the loop on closures, with the same result at every budget."""
    assert_every_budget_matches(parse(DECLINED), fn, args)
    assert builds == [None] and declines == [reason]


def test_an_inner_loop_tiers_up_on_its_own(hot_at_once, builds):
    unit = parse(DECLINED)
    assert_every_budget_matches(unit, "nests", [5])
    assert len(builds) == 2 and builds.count(None) == 1
    with pytest.raises(Declined):
        loop_source(unit.functions[2].body[2], {"n": 0, "t": 1, "i": 2}, 3, 2)


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
    }
    if (r2 % 2 != 0) {
      left = left - r2;
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
      let r = t % 5;
      t = t - r;
    }
    if (t < 0) {
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
    }
    i = i + 1;
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
    exit give back the steps charged ahead of them, and those of the
    segment's later iterations. The budget is tested, and the header and
    top-level statements of all the segment's iterations are charged, once
    per segment, before its `for`, and never inside it: inside, only a
    branch charges its own statements."""
    unit = parse(CHARGED)
    assert_every_budget_matches(unit, fn, args)
    assert builds and None not in builds
    for source in sources:
        assert "_BudgetExhausted" not in source
        assert source.count("steps_left //") == 1
        assert len(re.findall(r"\n        steps_left -= m \* \d+\n        for j in", source)) == 1
        body = segment(source)
        assert "steps_left <" not in body and "steps_left //" not in body
        assert not re.search(r"^ {12}steps_left -=", body, re.MULTILINE)


def test_the_calls_charge_what_they_are_meant_to():
    unit = parse(CHARGED)
    assert interpret(unit, "charges_one_branch", [[1, 4, 3, 0, 5], 7], 1_000).status == RETURNED
    assert interpret(unit, "returns_from_a_branch", [5], 1_000).value == 2 * (15 - 5)
    overflow = interpret(unit, "overflows_in_a_branch", [7], 1_000)
    assert overflow.error_kind == "integer-overflow" and overflow.error_at.index == 3


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
    """A segment runs as many iterations as the budget cannot interrupt, and
    segments end at budgets and accumulator caps only: the hot form checks
    no loop cut. An iteration that skips its branch charges less than the
    most, so a segment the budget ends may be followed by another. Every
    budget hands the entry back at another offset of its 300 visits."""
    assert_every_budget_matches(parse(SEGMENTS), "long_run", [[1, 2, 3], 300])
    assert builds and None not in builds
    [source] = sources
    assert "for j in range(m - 1, -1, -1):" in source


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

fn reads_around_a_step(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v)) {
    t = t + v[i];
    i = i + 1;
    t = t + v[i];
  }
  return t;
}

fn stops_early(v: int[]) -> int {
  let t = 0;
  let i = 0;
  while (i < len(v) && t < 12) {
    t = t + v[i];
    i = i + 1;
  }
  return t;
}

fn either_side(v: int[], n: int) -> int {
  let t = 0;
  let i = 0;
  while (n > i - 2 && i < len(v)) {
    t = t + v[i] * 2;
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
        ("walks_back_the_other_way_round", [[4, 5, 6], 2], 0, 1),
        ("steps_first", [[3, 4, 5]], 0, 1),
        ("steps_in_a_branch", [[3, 4, 5, 6, 7]], 0, 1),
        ("steps_in_a_branch", [[1, 1, 1, 1]], 0, 1),
        ("reads_around_a_step", [[3, 4, 5]], 1, 1),
        ("stops_early", [[2, 3, 4, 5]], 1, 0),
        ("stops_early", [[5, 5, 5, 5, 5]], 1, 0),
        ("either_side", [[1, 2, 3, 4], 9], 2, 0),
        ("either_side", [[1, 2, 3, 4], 2], 2, 0),
    ],
)
def test_a_bound_the_header_implies_holds_until_the_index_is_stored(fn, args, reduced, full, hot_at_once, sources):
    """Under `i < len(v)`, alone or as a conjunct of an `&&` header, `v[i]`
    tests only `i >= 0` until the first store to `i`, in the body or in a
    branch; after it, it tests the full bound. A negative `i` still traps.
    A header `len(v) > i` implies no bound."""
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
    assert interpret(unit, "reads_around_a_step", [[3, 4, 5]], 1_000).error_kind == "index-out-of-bounds"
    assert interpret(unit, "stops_early", [[5, 5, 5, 5, 5]], 1_000).value == 15


# -- arithmetic that cannot trap ----------------------------------------------------

FOLDS = """\
fn folds(x: int, v: int[]) -> int {
  let y = 0;
  let i = 0;
  while (i < len(v)) {
    y = x OP;
    if (x OP == 0 || len(v) != 3) {
      y = v[i] OP;
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
@pytest.mark.parametrize("x", [INT_MIN, INT_MAX, 0, -7, 6])
@pytest.mark.parametrize("fn", ["folds", "folds_what_traps"])
def test_identities_fold_after_the_checks_of_their_operand(fn, x, identity, hot_at_once, sources):
    """`x * 1`, `x / 1`, `x + 0` and `x - 0` read as `x` and `x % 1` as 0,
    at the extremes of the int range too, while `(x + i) * 1` still
    overflows and `v[i + 1] * 1` still runs out of bounds."""
    unit = parse(FOLDS.replace("OP", identity))
    assert_every_budget_matches(unit, fn, [x, [5, -3, 8]])
    operand = r"(\b[stn]\d+|[)\]])"
    assert not re.search(rf"{operand} (\*|//|%) 1\b|{operand} [-+] 0\b", "".join(sources))


@pytest.mark.parametrize("identity", IDENTITIES + [""])
@pytest.mark.parametrize("fn", ["folds", "folds_what_traps"])
def test_no_hot_text_tests_a_type(fn, identity, hot_at_once, sources):
    """`x * 1 == 0`, `x == 0` and `len(v) != 3` compare as `<` does, and
    `x * 1` reads `x` as it is."""
    interpret(parse(FOLDS.replace("OP", identity)), fn, [0, [1, 2]], 1_000)
    assert sources
    assert_tests_no_type(sources)


IDENTITY_LATE = """\
fn f(x: int) -> int {
  let i = 0;
  let y = 0;
  while (i < 100) {
    if (i == 80) {
      y = x * 1;
    }
    i = i + 1;
  }
  return y;
}
"""


@pytest.mark.parametrize("threshold", [1, 16, 64, COLD])
@pytest.mark.parametrize("x", [2**63, INT_MIN - 1, True])
def test_an_argument_of_the_wrong_type_is_rejected_at_every_threshold(x, threshold, monkeypatch):
    """An int outside the 64-bit range or a bool for an int is rejected at
    entry with the same error whether the loop runs hot or not, so neither
    tier meets it in `x * 1`; `INT_MAX` comes out as itself."""
    monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", threshold)
    unit = parse(IDENTITY_LATE)
    with pytest.raises(ValueError, match=r"^'f': argument 'x' must have type int$"):
        interpret(unit, "f", [x], 10_000)
    assert interpret(unit, "f", [INT_MAX], 10_000).value == INT_MAX


# -- accumulators: overflow bounded per segment ---------------------------------------

ACCUMULATORS = """\
fn drifts(v: int[], t: int) -> int {
  let i = 0;
  while (i < len(v)) {
    t = t + v[i];
    i = i + 1;
  }
  return t;
}

fn nears(t: int, d: int[], n: int) -> int {
  let i = 0;
  while (i < n) {
    t = t + d[0];
    i = i + 1;
  }
  return t;
}

fn falls(t: int, d: int[], n: int) -> int {
  let i = 0;
  while (i < n) {
    t = t - d[0];
    i = i + 1;
  }
  return t;
}

fn stalls(v: int[], t: int, d: int[]) -> int {
  let i = 0;
  while (i < len(v)) {
    t = d[0] + t;
    i = i * 1;
  }
  return t;
}

fn leaves(v: int[], t: int, r: int, q: int) -> int {
  let c = 0;
  let i = 0;
  while (i < 100) {
    t = t + v[i % len(v)];
    if (c == r) {
      return t;
    }
    if (c > 2) {
      let z = 100 / (c - q);
    }
    c = c + 1;
    i = i + 1;
  }
  return t;
}
"""

NEAR_MAX = INT_MAX - 40
NEAR_MIN = INT_MIN + 40


def assert_every_budget_matches_the_closures(unit, fn, args, monkeypatch, most=2_000):
    """At every budget from 1 to one past a full run's steps (at most
    `most`), the same result with every loop hot as on the closures alone.
    The hot form makes no loop cut: a hot run's here is none, or the
    closures' where the hot form hands the entry back before its first
    iteration (as at a cap of 0) and they finish it."""

    def run(at, budget):
        monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", at)
        result = interpret(unit, fn, args, budget)
        return observable(result), result.loop_cut_at

    full = interpret(unit, fn, args, most)
    for budget in range(1, min(full.steps_used, most) + 2):
        (hot, hot_cut), (cold, cold_cut) = run(1, budget), run(COLD, budget)
        assert hot == cold, budget
        assert hot_cut in (None, cold_cut), budget


@pytest.mark.parametrize(
    "fn, args, outcome",
    [
        ("drifts", [[2**61] * 4 + [5], 0], "integer-overflow"),
        ("drifts", [[1, 2, 3], INT_MAX - 4], "integer-overflow"),
        ("drifts", [[-1, -2, -3], INT_MIN + 3], "integer-overflow"),
        ("drifts", [[5, -5, 5, -5], INT_MAX - 5], RETURNED),
        ("nears", [NEAR_MAX, [1], 60], "integer-overflow"),
        ("nears", [NEAR_MAX, [1], 30], RETURNED),
        ("nears", [NEAR_MAX, [-3], 60], RETURNED),
        ("nears", [5, [INT_MAX], 3], "integer-overflow"),
        ("nears", [INT_MAX, [0], 20], RETURNED),
        ("falls", [NEAR_MIN, [1], 60], "integer-overflow"),
        ("falls", [INT_MIN, [0], 10], RETURNED),
        ("falls", [3, [-4], 20], RETURNED),
        ("stalls", [[1], 7, [0]], "cut"),
        ("stalls", [[1], INT_MAX, [0]], "cut"),
        ("stalls", [[1], NEAR_MAX, [2]], "integer-overflow"),
        ("stalls", [[1], 7, [-1]], BUDGET_EXHAUSTED),
        ("leaves", [[3, 4], NEAR_MAX - 200, 50, 10], "division-by-zero"),
        ("leaves", [[3, 4], 0, 6, 99], RETURNED),
        ("leaves", [[30, 40], NEAR_MAX - 200, 50, 99], "integer-overflow"),
        ("leaves", [[], 0, 5, 5], "modulo-by-zero"),
    ],
)
def test_an_accumulator_is_capped_per_segment_and_traps_where_the_closures_do(fn, args, outcome, monkeypatch):
    """An accumulator, changed only by `x = x + e`, `x = x - e` or
    `x = e + x` with `e` a literal or an element of an array the loop never
    rebinds, stores without an overflow check: each segment is capped so that `|x|` cannot pass
    INT_MAX, and the entry is handed back to the closures once the cap is 0.
    An accumulator that overflows, or nears INT_MAX or INT_MIN and hands
    back, traps or returns at the step the closures do, at every budget,
    with `x` at INT_MIN too (`falls`), a zero increment (`nears`,
    `stalls`), a header state that repeats (`stalls`, which the closures
    cut by the default threshold), a `return` or a trap in a branch
    (`leaves`)."""
    unit = parse(ACCUMULATORS)
    assert_every_budget_matches_the_closures(unit, fn, args, monkeypatch, most=400)
    result = interpret(unit, fn, args, 100_000)
    if outcome == "cut":
        assert result.loop_cut_at is not None
    else:
        assert outcome in (result.status, result.error_kind)


@pytest.mark.parametrize(
    "fn, args, caps, checked",
    [
        ("drifts", [[1, 2], 0], 2, 0),
        ("nears", [0, [1], 5], 2, 0),
        ("falls", [0, [1], 5], 2, 0),
        ("stalls", [[1, 2], 0, [1]], 1, 0),
        ("leaves", [[1, 2], 0, 5, 99], 3, 2),
    ],
)
def test_only_accumulators_drop_their_overflow_check(fn, args, caps, checked, hot_at_once, sources):
    """Each accumulator adds one cap to the segment size `m` and loses its
    store's overflow check; `c - q` and `100 / (c - q)` in `leaves` keep
    theirs."""
    interpret(parse(ACCUMULATORS), fn, args, 1_000)
    [source] = sources
    [segment_size] = re.findall(r"m = .*", source)
    assert segment_size.count("abs(s") == caps
    assert source.count("'integer-overflow'") == checked


# -- the random programs reach each shape ---------------------------------------------


def implied_bounds_kept(source: str) -> list[bool]:
    """For each index `i` of a header bound `i < len(v)` that the hot text
    `source` reads as `v[i]` with only `i >= 0`: whether a full check of
    `v[i]` follows, after a store to `i`."""
    header = segment(source).split("break")[0]
    kept = []
    for index, length in re.findall(r"\((s\d+) < (n\d+)\)", header):
        reduced = source.find(f"if {index} < 0:")
        if reduced >= 0:
            kept.append(f"if not 0 <= {index} < {length}:" in source[reduced:])
    return kept


def test_random_programs_reach_the_shapes_the_hot_form_treats_apart(hot_at_once, sources, monkeypatch):
    """The derandomized differential tests of `random_hot_unit` run 400
    units each, at budgets up to 500 and 2,000 steps, with every loop hot.
    Run the same way, seeds 0-399 build hot loops of at least 1 % of the
    units with each shape: a `v[i]` read or written with only `i >= 0` under the header's
    `i < len(v)`, one read with the full check after a store to `i`, each
    of the five identities folded, a hand-back at an accumulator's cap
    (with steps left for an iteration) and one that follows a segment the
    cap ended."""
    folded = []
    identity = hotloop._Emitter.identity

    def recording(emitter, expr, into):
        folded.append(f"{expr.op} {expr.rhs.value}")
        return identity(emitter, expr, into)

    monkeypatch.setattr(hotloop._Emitter, "identity", recording)
    capped = set()
    build = interpreter._hot_loop

    def watching(*args):
        hot = build(*args)
        if hot is None:
            return None
        most = int(re.search(r"steps_left // (\d+)", sources[-1]).group(1))

        def watched(frame, run, marks):
            steps = run.steps_left
            value = hot(frame, run, marks)
            if value is interpreter._HandBack and run.steps_left >= most:
                capped.add("hand-back at a cap")
                if run.steps_left < steps:
                    capped.add("capped segment")
            return value

        return watched

    monkeypatch.setattr(interpreter, "_hot_loop", watching)
    reached = Counter()
    for seed in range(400):
        sources.clear()
        folded.clear()
        capped.clear()
        unit = random_hot_unit(seed)
        rng = random.Random(seed)
        for fn in unit.functions:
            interpret(unit, fn.name, random_args([t for _, t in fn.params], rng), 500)
        shapes = set(folded) | capped
        for source in sources:
            kept = implied_bounds_kept(source)
            shapes |= {"implied bound"} if kept else set()
            shapes |= {"full bound after a store"} if any(kept) else set()
        reached.update(shapes)
    shapes = ["implied bound", "full bound after a store", "* 1", "/ 1", "% 1", "+ 0", "- 0"]
    shapes += ["hand-back at a cap", "capped segment"]
    assert all(reached[shape] >= 4 for shape in shapes), reached
