import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minirepair.faultloc import (
    Navigator,
    SuiteRun,
    SuspiciousStatement,
    _score,
    build_matrix,
    ochiai,
    rank,
    run_order,
    spectrum_rows,
    tarantula,
    weimer_binary,
)
from minirepair.minilang import StatementId, all_statement_ids, parse, testsuite
from minirepair.minilang.testsuite import load_suite

from samples import MAX_SUITE, corpus_case_names, load_corpus_case


def sid(i, fn="max"):
    return StatementId(fn, i)


def hand_run(rows):
    """The complete run of a made-up suite: one test per `(passed,
    executed)` row, named t0, t1, ..., all of a made-up function."""
    suite = [testsuite.TestCase(f"t{k}", "f", (), 0) for k in range(len(rows))]
    records = tuple((passed, frozenset(executed)) for passed, executed in rows)
    failing = [test.name for test, (passed, _) in zip(suite, records) if not passed]
    order = run_order(suite, failing)
    verdicts = [(suite[i].name, records[i][0]) for i in order]
    return SuiteRun(verdicts, records, len(failing), suite, order, 1)


# --- the original's run ------------------------------------------------------


def test_buggy_max_matrix(buggy_max, max_suite):
    run = build_matrix(buggy_max, max_suite, 1000)
    assert list(run) == [("t1", False), ("t2", True)]
    assert run.failures == 1 and run.order == (0, 1) and run.step_budget == 1000
    assert run.records[0] == (False, {sid(0), sid(1), sid(3)})


def test_correct_max_matrix(correct_max):
    suite = load_suite(MAX_SUITE, correct_max)
    run = build_matrix(correct_max, suite, 1000)
    assert run.failures == 0 and [passed for _, passed in run] == [True, True]


def test_single_failing_test(buggy_max, max_suite):
    run = build_matrix(buggy_max, max_suite[:1], 1000)
    assert list(run) == [("t1", False)] and run.failures == 1


def test_the_run_lists_failing_tests_first(buggy_max, max_suite):
    run = build_matrix(buggy_max, max_suite[::-1], 1000)
    assert list(run) == [("t1", False), ("t2", True)] and run.order == (1, 0)


def test_error_outcomes_count_as_failures():
    unit = parse("fn f(x: int) -> int { return 10 / x; }")
    suite = load_suite(
        '{"tests": [{"name": "t", "call": {"fn": "f", "args": [0]}, "expect": 0}]}', unit
    )
    run = build_matrix(unit, suite, 100)
    assert run.failures == 1


# --- formulas ----------------------------------------------------------------


def test_ochiai_values():
    assert ochiai(2, 0, 0) == 1.0
    assert ochiai(0, 5, 3) == 0.0
    assert ochiai(1, 1, 0) == 1 / math.sqrt(2)
    assert ochiai(0, 0, 3) == 0.0  # 0/0 guard


def test_tarantula_values():
    assert tarantula(1, 0, 1, 1) == 1.0
    assert tarantula(0, 1, 1, 1) == 0.0
    assert tarantula(1, 1, 1, 2) == 2 / 3
    assert tarantula(2, 5, 2, 0) == 1.0  # no passing tests


def test_weimer_values():
    assert weimer_binary(3, 0) == 1.0
    assert weimer_binary(3, 2) == 0.1
    assert weimer_binary(0, 9) == 0.0


counts = st.integers(min_value=0, max_value=60)


@given(ef=counts, ep=counts, nf=counts, np_=counts)
def test_scores_stay_in_unit_interval(ef, ep, nf, np_):
    total_fail = ef + nf
    total_pass = ep + np_
    if total_fail >= 1:
        for score in (
            ochiai(ef, ep, nf),
            tarantula(ef, ep, total_fail, total_pass),
            weimer_binary(ef, ep),
        ):
            assert 0.0 <= score <= 1.0


@given(ef=st.integers(min_value=0, max_value=59), ep=counts, nf=counts, np_=counts)
def test_monotone_in_failing_coverage(ef, ep, nf, np_):
    """More failing tests executing a statement never lowers its score."""
    total_fail = ef + 1 + nf
    total_pass = ep + np_
    assert ochiai(ef + 1, ep, nf) >= ochiai(ef, ep, nf + 1)
    assert tarantula(ef + 1, ep, total_fail, total_pass) >= tarantula(
        ef, ep, total_fail, total_pass
    )


# --- ranking -----------------------------------------------------------------


def test_rank_buggy_max(buggy_max, max_suite):
    run = build_matrix(buggy_max, max_suite, 1000)
    ranked = rank(run, "ochiai", tuple(all_statement_ids(buggy_max)))
    assert [s.statement for s in ranked] == [sid(0), sid(1), sid(3)]
    for entry in ranked:
        assert entry.ef == 1 and entry.ep == 1 and entry.nf == 0 and entry.np == 0
        assert entry.score == pytest.approx(0.7071, abs=1e-4)


def test_failing_only_statement_ranks_first():
    unit = parse(
        "fn f(x: int) -> int {"
        " if (x > 0) { return 10 / (x - 1); }"
        " return 0; }"
    )
    suite = load_suite(
        '{"tests": ['
        '{"name": "boom", "call": {"fn": "f", "args": [1]}, "expect": 0},'
        '{"name": "ok", "call": {"fn": "f", "args": [-1]}, "expect": 0}]}',
        unit,
    )
    run = build_matrix(unit, suite, 100)
    ranked = rank(run, "ochiai", tuple(all_statement_ids(unit)))
    assert ranked[0].statement == StatementId("f", 1)
    assert ranked[0].score == 1.0


def test_zero_scores_are_excluded():
    run = hand_run([(False, ()), (True, {sid(0)})])
    assert rank(run, "ochiai", (sid(0),)) == []


def test_rank_requires_failing_test(correct_max):
    suite = load_suite(MAX_SUITE, correct_max)
    run = build_matrix(correct_max, suite, 1000)
    with pytest.raises(ValueError):
        rank(run, "ochiai", tuple(all_statement_ids(correct_max)))


def test_rank_requires_a_record_of_every_test():
    run = hand_run([(False, {sid(0)}), (True, {sid(0), sid(1)})])
    stopped = SuiteRun(list(run)[:1], run.records[:1] + (None,), 1, run.suite, run.order, 1)
    with pytest.raises(ValueError, match="record of every test"):
        rank(stopped, "ochiai", (sid(0), sid(1)))


def brute_force_rank(run, formula, statement_order):
    """Recompute suspiciousness straight from the raw records."""
    total_fail = sum(1 for passed, _ in run.records if not passed)
    total_pass = len(run.records) - total_fail
    covered = sorted(
        {s for _, executed in run.records for s in executed},
        key=statement_order.index,
    )
    scored = []
    for statement in covered:
        ef = ep = 0
        for passed, executed in run.records:
            if statement in executed:
                if passed:
                    ep += 1
                else:
                    ef += 1
        nf = total_fail - ef
        if formula == "ochiai":
            score = 0.0 if ef == 0 else ef / math.sqrt((ef + nf) * (ef + ep))
        elif formula == "tarantula":
            if ef == 0:
                score = 0.0
            else:
                fr = ef / total_fail
                pr = ep / total_pass if total_pass else 0.0
                score = fr / (fr + pr)
        else:
            score = 0.0 if ef == 0 else (1.0 if ep == 0 else 0.1)
        if score > 0:
            scored.append((statement, score))
    scored.sort(key=lambda pair: -pair[1])
    return scored


@pytest.mark.parametrize("name", corpus_case_names())
@pytest.mark.parametrize("formula", ["ochiai", "tarantula", "weimer"])
def test_rank_matches_brute_force(name, formula):
    unit, suite, _ = load_corpus_case(name)
    run = build_matrix(unit, suite, 2000)
    if run.failures == 0:
        pytest.skip("corpus case has no failing test")
    order = tuple(all_statement_ids(unit))
    ranked = rank(run, formula, order)
    expected = brute_force_rank(run, formula, order)
    assert [s.statement for s in ranked] == [statement for statement, _ in expected]
    for got, (_, want) in zip(ranked, expected):
        assert abs(got.score - want) <= 1e-9


def rank_two_sums(run, formula, statement_order):
    """`rank` as it was before counting in one pass: two scans of the
    records for every covered statement."""
    total_fail = run.failures
    total_pass = len(run.records) - total_fail
    covered = set()
    for _, executed in run.records:
        covered.update(executed)
    ranked = []
    for statement in statement_order:
        if statement not in covered:
            continue
        ef = sum(1 for passed, executed in run.records if not passed and statement in executed)
        ep = sum(1 for passed, executed in run.records if passed and statement in executed)
        score = _score(formula, ef, ep, total_fail, total_pass)
        if score <= 0.0:
            continue
        ranked.append(SuspiciousStatement(statement, score, ef, ep, total_fail - ef, total_pass - ep))
    ranked.sort(key=lambda s: -s.score)
    return ranked


def random_run(rng):
    """A run over two functions' statements, with its statement order; at
    least one test fails, and few tests make many tied scores."""
    order = tuple(StatementId(fn, i) for fn in ("f", "g") for i in range(rng.randint(1, 8)))
    rows = []
    for t in range(rng.randint(1, 7)):
        executed = {s for s in order if rng.random() < 0.5}
        rows.append((t > 0 and rng.random() < 0.6, executed))
    return hand_run(rows), order


@pytest.mark.parametrize("formula", ["ochiai", "tarantula", "weimer"])
def test_one_pass_rank_matches_the_two_sum_form_on_random_matrices(formula):
    rng = random.Random(formula)
    for _ in range(500):
        run, order = random_run(rng)
        assert rank(run, formula, order) == rank_two_sums(run, formula, order)


# --- navigation ---------------------------------------------------------------


def entries(*scores):
    return [
        SuspiciousStatement(sid(i, "f"), score, 1, 0, 0, 0) for i, score in enumerate(scores)
    ]


def test_singleton_any_strategy():
    for strategy in ("rank", "uniform", "weighted"):
        nav = Navigator(entries(1.0), strategy, random.Random(1))
        assert nav.pick().statement == sid(0, "f")


def test_rank_order_walks_the_list():
    nav = Navigator(entries(0.9, 0.5), "rank", random.Random(1))
    picks = [nav.pick().statement.index for _ in range(5)]
    assert picks == [0, 1, 0, 1, 0]


def test_weighted_distribution():
    nav = Navigator(entries(0.8, 0.2), "weighted", random.Random(42))
    draws = 100_000
    hits = sum(1 for _ in range(draws) if nav.pick().statement.index == 0)
    assert abs(hits / draws - 0.8) <= 0.01


def test_uniform_distribution():
    nav = Navigator(entries(0.9, 0.1), "uniform", random.Random(42))
    draws = 20_000
    hits = sum(1 for _ in range(draws) if nav.pick().statement.index == 0)
    assert abs(hits / draws - 0.5) <= 0.02


def test_empty_list_is_an_error():
    with pytest.raises(ValueError):
        Navigator([], "weighted", random.Random(0))


def test_spectrum_rows(buggy_max, max_suite):
    ranked = rank(build_matrix(buggy_max, max_suite, 1000), "ochiai", tuple(all_statement_ids(buggy_max)))
    rows = spectrum_rows(ranked)
    assert rows[0]["statement_id"] == "max:0"
    assert set(rows[0]) == {"statement_id", "ef", "ep", "nf", "np", "score"}
