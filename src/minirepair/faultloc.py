"""Spectrum-based fault localization.

Runs the suite against a unit to build a coverage matrix (per-test
verdict plus the set of executed statements), scores each executed
statement with a suspiciousness formula, and offers navigation
strategies for picking the next statement to modify. Scores live in
[0, 1]; statements never executed by a failing test score 0 and are
dropped from the ranked search space.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from minirepair.minilang import SourceUnit, StatementId, all_statement_ids
from minirepair.minilang.testsuite import TestCase, run_test

FORMULAS = ("ochiai", "tarantula", "weimer")
STRATEGIES = ("weighted", "rank", "uniform")


@dataclass(frozen=True)
class CoverageRow:
    test_name: str
    passed: bool
    executed: frozenset[StatementId]
    # The names of the functions of `executed`, found from it unless given.
    functions: frozenset[str] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.functions is None:
            object.__setattr__(self, "functions", frozenset(sid.function for sid in self.executed))


@dataclass(frozen=True)
class CoverageMatrix:
    rows: tuple[CoverageRow, ...]
    total_pass: int
    total_fail: int
    statement_order: tuple[StatementId, ...]

    @property
    def failing_test_names(self) -> list[str]:
        return [row.test_name for row in self.rows if not row.passed]


@dataclass(frozen=True)
class SuspiciousStatement:
    statement: StatementId
    score: float
    ef: int  # failing tests executing the statement
    ep: int  # passing tests executing the statement
    nf: int  # failing tests not executing it
    np: int  # passing tests not executing it


def build_matrix(
    unit: SourceUnit,
    suite: list[TestCase],
    step_budget: int,
    statement_order: tuple[StatementId, ...] | None = None,
) -> CoverageMatrix:
    """One row per test, in suite order; errors and budget blowups fail.
    `statement_order` is `all_statement_ids(unit)` for a caller that has
    walked the unit already."""
    if not suite:
        raise ValueError("empty test suite")
    rows = []
    for test in suite:
        passed, result = run_test(unit, test, step_budget)
        rows.append(CoverageRow(test.name, passed, frozenset(result.executed), result.functions))
    total_pass = sum(1 for row in rows if row.passed)
    if statement_order is None:
        statement_order = tuple(all_statement_ids(unit))
    return CoverageMatrix(
        rows=tuple(rows),
        total_pass=total_pass,
        total_fail=len(rows) - total_pass,
        statement_order=statement_order,
    )


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


def _score(formula: str, ef: int, ep: int, matrix: CoverageMatrix) -> float:
    if formula == "ochiai":
        return ochiai(ef, ep, matrix.total_fail - ef)
    if formula == "tarantula":
        return tarantula(ef, ep, matrix.total_fail, matrix.total_pass)
    if formula == "weimer":
        return weimer_binary(ef, ep)
    raise ValueError(f"unknown formula {formula!r}")


def rank(matrix: CoverageMatrix, formula: str = "ochiai") -> list[SuspiciousStatement]:
    """Executed statements with positive scores, most suspicious first.

    Ties break by statement order: function declaration order, then
    pre-order index. Requires at least one failing test.
    """
    if matrix.total_fail < 1:
        raise ValueError("fault localization needs at least one failing test")
    ef_by: Counter[StatementId] = Counter()
    ep_by: Counter[StatementId] = Counter()
    for row in matrix.rows:
        (ep_by if row.passed else ef_by).update(row.executed)
    ranked = []
    for sid in matrix.statement_order:
        ef, ep = ef_by[sid], ep_by[sid]
        if not ef and not ep:
            continue
        score = _score(formula, ef, ep, matrix)
        if score <= 0.0:
            continue
        ranked.append(
            SuspiciousStatement(
                statement=sid,
                score=score,
                ef=ef,
                ep=ep,
                nf=matrix.total_fail - ef,
                np=matrix.total_pass - ep,
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
