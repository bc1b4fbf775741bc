"""Two-phase validation of candidate repairs, read from one suite run.

A candidate's suite runs once, in the engine's fitness step, with the
originally failing tests first. Validation runs no test: it splits that
run's verdicts into phase 1, the originally failing tests, and phase 2,
the regression check that every previously passing test still passes.
A phase-1 failure discards the candidate and leaves phase 2 empty. Which
tests count as "originally failing" is fixed once, from the unpatched
program, and never re-classified during a run. A run with no failing
verdict passes both phases, so the engine takes a fitness-zero child as
a patch without calling `validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Verdicts = tuple[tuple[str, bool], ...]  # (test name, passed), in run order


class UnknownTestName(Exception):
    """An originally-failing test name is not present in the suite."""


@dataclass(frozen=True)
class ValidationResult:
    phase1: Verdicts  # originally failing tests
    phase2: Verdicts  # regression verdicts; empty when phase 1 failed
    valid: bool


def validate(verdicts: Verdicts, originally_failing: Iterable[str]) -> ValidationResult:
    """The two-phase view of one run's verdicts.

    A run that stopped at its first failure may lack later phase-1
    verdicts; it is discarded in phase 1 all the same. When phase 1
    passes, every originally failing test must have a verdict.
    """
    failing_names = set(originally_failing)
    if not failing_names:
        raise ValueError("originally_failing must be nonempty")
    phase1 = tuple(v for v in verdicts if v[0] in failing_names)
    if not all(passed for _, passed in phase1):
        return ValidationResult(phase1, (), False)
    unknown = failing_names.difference(name for name, _ in phase1)
    if unknown:
        raise UnknownTestName(f"unknown test name(s): {', '.join(sorted(unknown))}")
    phase2 = tuple(v for v in verdicts if v[0] not in failing_names)
    return ValidationResult(phase1, phase2, all(passed for _, passed in phase2))
