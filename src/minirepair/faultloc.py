"""Spectrum-based fault localization, and the record of a suite run.

A `SuiteRun` is the one record of a run of the suite on a program: each
test's verdict and the ids of the statements it began. `build_matrix`
runs the suite on the original program; that run is the coverage matrix
`rank` reads, and the first run the search's children copy from (see
`engine.fitness`). `rank` scores each executed statement with a
suspiciousness formula, and `Navigator` offers strategies for picking
the next statement to modify. Scores live in [0, 1]; statements never
executed by a failing test score 0 and are dropped from the ranked
search space.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from minirepair.minilang import SourceUnit, StatementId
from minirepair.minilang.testsuite import TestCase, run_test

FORMULAS = ("ochiai", "tarantula", "weimer")
STRATEGIES = ("weighted", "rank", "uniform")


# One test's run on a program: (passed, the ids of the statements whose
# evaluation the run began, as `interpret` reports them).
TestRecord = tuple[bool, frozenset[StatementId]]


def run_order(suite: list[TestCase], originally_failing: list[str]) -> tuple[int, ...]:
    """The suite positions in two-phase order: the originally failing tests
    first, then the rest, each in suite order."""
    first = set(originally_failing)
    order = [i for i, t in enumerate(suite) if t.name in first]
    return tuple(order + [i for i, t in enumerate(suite) if t.name not in first])


class SuiteRun(tuple):
    """One run of `suite` on a program, the one record of it: its
    verdicts, `(test name, passed)` for each test it reached, in run
    `order`, as `validate` reads them; `records`, each test's `TestRecord`
    by suite position, None for a test it has no record of; `failures`,
    how many verdicts failed; and the `suite`, `order` and `step_budget`
    it ran under. `build_matrix` makes the original program's, which
    `rank` reads; a child's `fitness` reads its parent's through `index`."""

    def __new__(
        cls,
        verdicts: list[tuple[str, bool]],
        records: tuple[TestRecord | None, ...],
        failures: int,
        suite: list[TestCase],
        order: tuple[int, ...],
        step_budget: int,
    ):
        run = super().__new__(cls, verdicts)
        run.records, run.failures = records, failures
        run.suite, run.order, run.step_budget = suite, order, step_budget
        run._index = None
        return run

    def __reduce__(self):
        """Copies and pickles rebuild the run from its fields and leave the
        index out; a copy builds its own when first read."""
        return type(self), (list(self), self.records, self.failures, self.suite, self.order, self.step_budget)

    def index(self) -> tuple[dict[str, list[int]], list[int]]:
        """`(by_function, unknown)`: for each function name the run-order
        positions of the tests whose records began a statement of it, and
        the positions with no record, each ascending. Built on the first
        call and kept."""
        if self._index is None:
            by_function: dict[str, list[int]] = {}
            unknown = []
            for k, i in enumerate(self.order):
                record = self.records[i]
                if record is None:
                    unknown.append(k)
                    continue
                for name in {sid.function for sid in record[1]}:
                    by_function.setdefault(name, []).append(k)
            self._index = by_function, unknown
        return self._index


@dataclass(frozen=True)
class SuspiciousStatement:
    statement: StatementId
    score: float
    ef: int  # failing tests executing the statement
    ep: int  # passing tests executing the statement
    nf: int  # failing tests not executing it
    np: int  # passing tests not executing it


def build_matrix(unit: SourceUnit, suite: list[TestCase], step_budget: int) -> SuiteRun:
    """The run of `suite` on the original program: every test runs, in
    suite order, and its verdicts stand in two-phase order (`run_order`).
    Errors and budget blowups fail."""
    if not suite:
        raise ValueError("empty test suite")
    records = []
    for test in suite:
        passed, result = run_test(unit, test, step_budget)
        records.append((passed, result.executed))
    failing = [test.name for test, (passed, _) in zip(suite, records) if not passed]
    order = run_order(suite, failing)
    verdicts = [(suite[i].name, records[i][0]) for i in order]
    return SuiteRun(verdicts, tuple(records), len(failing), suite, order, step_budget)


def ochiai(ef: int, ep: int, nf: int) -> float:
    """ef / sqrt((ef + nf) * (ef + ep)), with 0 whenever ef is 0."""
    if ef == 0:
        return 0.0
    return ef / math.sqrt((ef + nf) * (ef + ep))


def tarantula(ef: int, ep: int, total_fail: int, total_pass: int) -> float:
    """Failing coverage ratio over the summed pass/fail coverage ratios."""
    if ef == 0:
        return 0.0
    fail_ratio = ef / total_fail
    pass_ratio = ep / total_pass if total_pass > 0 else 0.0
    return fail_ratio / (fail_ratio + pass_ratio)


def weimer_binary(ef: int, ep: int) -> float:
    """Three-valued weighting: 1.0 failing-only, 0.1 mixed, 0.0 otherwise."""
    if ef == 0:
        return 0.0
    return 1.0 if ep == 0 else 0.1


def _score(formula: str, ef: int, ep: int, total_fail: int, total_pass: int) -> float:
    if formula == "ochiai":
        return ochiai(ef, ep, total_fail - ef)
    if formula == "tarantula":
        return tarantula(ef, ep, total_fail, total_pass)
    if formula == "weimer":
        return weimer_binary(ef, ep)
    raise ValueError(f"unknown formula {formula!r}")


def rank(run: SuiteRun, formula: str, statement_order: tuple[StatementId, ...]) -> list[SuspiciousStatement]:
    """Executed statements with positive scores, most suspicious first.

    `statement_order` is the program's statements in function declaration
    order, then pre-order index; ties break by it. Requires a record of
    every test and at least one failing test.
    """
    if None in run.records:
        raise ValueError("fault localization needs a record of every test")
    total_fail = run.failures
    total_pass = len(run.records) - total_fail
    if total_fail < 1:
        raise ValueError("fault localization needs at least one failing test")
    ef_by: Counter[StatementId] = Counter()
    ep_by: Counter[StatementId] = Counter()
    for passed, executed in run.records:
        (ep_by if passed else ef_by).update(executed)
    ranked = []
    for sid in statement_order:
        ef, ep = ef_by[sid], ep_by[sid]
        if not ef and not ep:
            continue
        score = _score(formula, ef, ep, total_fail, total_pass)
        if score <= 0.0:
            continue
        ranked.append(
            SuspiciousStatement(
                statement=sid,
                score=score,
                ef=ef,
                ep=ep,
                nf=total_fail - ef,
                np=total_pass - ep,
            )
        )
    ranked.sort(key=lambda s: -s.score)  # stable: preserves statement order on ties
    return ranked


class Navigator:
    """Picks the next suspicious statement under a navigation strategy.

    "rank" walks the list in order across successive calls (wrapping),
    "uniform" draws equiprobably, and "weighted" draws each entry with
    probability proportional to its score. Draws come from the caller's
    random stream, so parallel callers own independent streams.
    """

    def __init__(self, ranked: list[SuspiciousStatement], strategy: str, rng: random.Random):
        if not ranked:
            raise ValueError("cannot navigate an empty suspicious-statement list")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown navigation strategy {strategy!r}")
        self.ranked = list(ranked)
        self.strategy = strategy
        self.rng = rng
        self._cursor = 0
        self._total = sum(s.score for s in self.ranked)

    def pick(self) -> SuspiciousStatement:
        if self.strategy == "rank":
            entry = self.ranked[self._cursor % len(self.ranked)]
            self._cursor += 1
            return entry
        if self.strategy == "uniform":
            return self.ranked[self.rng.randrange(len(self.ranked))]
        mark = self.rng.random() * self._total
        acc = 0.0
        for entry in self.ranked:
            acc += entry.score
            if mark < acc:
                return entry
        return self.ranked[-1]  # guard against float round-off


def spectrum_rows(ranked: list[SuspiciousStatement]) -> list[dict]:
    """JSON-ready dump of a ranked spectrum (the --dump-spectrum payload)."""
    return [
        {
            "statement_id": str(s.statement),
            "ef": s.ef,
            "ep": s.ep,
            "nf": s.nf,
            "np": s.np,
            "score": s.score,
        }
        for s in ranked
    ]
