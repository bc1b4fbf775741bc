"""The evolutionary repair loop.

The search starts from a population of clones of the buggy program.
Each generation, every parent receives one transformation at a point
chosen by navigating the suspiciousness ranking (computed once, on the
original program, and re-resolved per variant by structural path), the
children's fitness (failing-test count) is measured in the only run of
their suites, which is also their validation: a child that fails no test
is a patch. The best of parents plus children survive. A child's run
reuses its parent's: a test that never entered the one function the
child edits keeps the parent's verdict without running. The run stops
when enough patches have been collected or the generation budget is
spent. Given the same inputs and seed, a run is fully deterministic.
"""

from __future__ import annotations

import difflib
import gc
import json
import random
import time
from dataclasses import asdict, dataclass, field, fields

from minirepair.faultloc import FORMULAS, STRATEGIES, Navigator, build_matrix, rank
from minirepair.faultloc import SuspiciousStatement
from minirepair.minilang import SourceUnit, pretty_print
from minirepair.minilang.nodes import iter_statement_paths
from minirepair.minilang.testsuite import TestCase, run_test
from minirepair.operators import (
    EMPTY_POOL,
    MODES,
    SCOPES,
    ModificationPoint,
    PatchOp,
    PatchSkip,
    apply_patch_op,
    enumerate_ops,
    harvest_ingredients,
)
# The two-phase view of a run, which no child needs since a fitness-zero
# child is a patch. It stays importable from here because the benchmark's
# layer probes (`perfbench/spans.py`) name it.
from minirepair.validation import validate  # noqa: F401

REDRAW_ATTEMPTS = 10  # per parent per generation

STATUS_PATCH_FOUND = "patch_found"
STATUS_EXHAUSTED = "exhausted"


class NoFailingTest(Exception):
    """The whole suite passes on the input program: nothing to repair."""


class UnlocalizableFault(Exception):
    """No statement received a positive suspiciousness score."""


@dataclass
class EngineConfig:
    mode: str
    population_size: int = 10
    max_generations: int = 50
    formula: str = "ochiai"
    navigation: str = "weighted"
    ingredient_scope: str = "local"
    step_budget: int = 100_000
    seed: int = 0
    max_patches: int = 1
    fast_validation: bool = False
    check_lineages: bool = False  # debug: replay every survivor each generation

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not _FIELD_TYPES[f.type]:
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        for name, choices in _FIELD_CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        if self.max_patches < 1:
            raise ValueError("max_patches must be >= 1")

    def as_dict(self) -> dict:
        return asdict(self)


_FIELD_TYPES = {"str": str, "int": int, "bool": bool}  # exact: True is not an int here
_FIELD_CHOICES = {
    "mode": MODES,
    "formula": FORMULAS,
    "navigation": STRATEGIES,
    "ingredient_scope": SCOPES,
}


# One test's run on a program: (passed, names of the functions whose
# statements the run began).
TestRecord = tuple[bool, frozenset[str]]


def _record(passed: bool, executed) -> TestRecord:
    return passed, frozenset(sid.function for sid in executed)


@dataclass
class ProgramVariant:
    ast: SourceUnit
    lineage: list[PatchOp]
    fitness: int
    generation_born: int
    # By suite position, the `TestRecord` of each test its suite run
    # reached; None for a test a fast run stopped before.
    records: tuple[TestRecord | None, ...] = ()


@dataclass
class FoundPatch:
    diff: str
    lineage: list[PatchOp]
    generation: int


@dataclass
class RepairOutcome:
    status: str
    patches: list[FoundPatch]
    generations_run: int
    variants_evaluated: int
    per_generation_best_fitness: list[int]
    wall_time_seconds: float
    seed: int
    config: EngineConfig
    spectrum: list[SuspiciousStatement]  # the original's ranking; not part of the report

    def report_dict(self) -> dict:
        return {
            "status": self.status,
            "seed": self.seed,
            "config": self.config.as_dict(),
            "generations_run": self.generations_run,
            "variants_evaluated": self.variants_evaluated,
            "patches": [
                {
                    "diff": patch.diff,
                    "lineage": [op.trace_entry() for op in patch.lineage],
                    "generation": patch.generation,
                }
                for patch in self.patches
            ],
            "per_generation_best_fitness": self.per_generation_best_fitness,
            "wall_time_seconds": self.wall_time_seconds,
        }

    def report_json(self) -> str:
        return json.dumps(self.report_dict(), indent=2, sort_keys=True) + "\n"


class SuiteRun(tuple):
    """The `Verdicts` of one fitness run, `(test name, passed)` in run
    order; `records` holds each test's `TestRecord` by suite position,
    None for a test the run stopped before."""

    def __new__(cls, verdicts: list[tuple[str, bool]], records: tuple[TestRecord | None, ...]):
        run = super().__new__(cls, verdicts)
        run.records = records
        return run


def fitness(
    unit: SourceUnit,
    suite: list[TestCase],
    originally_failing: list[str],
    step_budget: int,
    fast: bool = False,
    parent: ProgramVariant | None = None,
) -> SuiteRun:
    """Run the suite once; `(test name, passed)` for each test run.

    Tests run in two-phase order: the originally failing ones first,
    then the rest, each in suite order. Runtime errors and budget
    blowups fail. With `fast`, the run stops at the first failure, so
    the failure count is a lower bound (exact whenever it is zero).

    `parent` is the variant `unit` was made from, with records of this
    suite at this budget. A function `unit` shares with it is the same
    object and runs the same code. So a test whose run on the parent
    began no statement of an unshared function would repeat that run
    step for step: it takes the parent's verdict and record without
    running (safe regression-test selection). Every well-typed function
    has a statement, so a run enters one without beginning any only when
    the budget runs out there or its call trips `call-depth-exceeded`;
    either ends the run before the body starts, on both programs alike.
    A test the parent has no record of runs.
    """
    first = set(originally_failing)
    order = [i for i, t in enumerate(suite) if t.name in first]
    order += [i for i, t in enumerate(suite) if t.name not in first]
    edited = _unshared_functions(unit, parent, len(suite))
    records: list[TestRecord | None] = [None] * len(suite)
    verdicts = []
    for i in order:
        record = None if edited is None else parent.records[i]
        if record is None or not edited.isdisjoint(record[1]):
            passed, result = run_test(unit, suite[i], step_budget)
            record = _record(passed, result.executed)
        records[i] = record
        verdicts.append((suite[i].name, record[0]))
        if fast and not record[0]:
            break
    return SuiteRun(verdicts, tuple(records))


def _unshared_functions(
    unit: SourceUnit, parent: ProgramVariant | None, tests: int
) -> set[str] | None:
    """Names of the functions of `unit` that are not its parent's objects,
    or None when the parent's records cannot stand in for any run."""
    if parent is None or len(parent.records) != tests:
        return None
    before = parent.ast.functions
    if [fn.name for fn in unit.functions] != [fn.name for fn in before]:
        return None
    return {fn.name for fn, old in zip(unit.functions, before) if fn is not old}


def init_population(
    original: SourceUnit, n: int, original_fitness: int, records: tuple[TestRecord | None, ...] = ()
) -> list[ProgramVariant]:
    """n clones of the input program, all with its fitness, its test
    records and empty lineage."""
    if n < 1:
        raise ValueError("population size must be >= 1")
    return [ProgramVariant(original, [], original_fitness, 0, records) for _ in range(n)]


def select(
    parents: list[ProgramVariant], children: list[ProgramVariant], n: int
) -> list[ProgramVariant]:
    """Elitist survival: the n lowest-fitness variants of parents + children.

    Ties prefer younger variants, then shorter lineages, then input
    order.
    """
    if not parents:
        raise ValueError("parents must be nonempty")
    pool = parents + children
    pool.sort(key=lambda v: (v.fitness, -v.generation_born, len(v.lineage)))
    return pool[:n]


@dataclass
class _SearchState:
    """Everything one generation step needs, fixed at run start."""

    original: SourceUnit
    suite: list[TestCase]
    originally_failing: list[str]
    config: EngineConfig
    rng: random.Random
    navigator: Navigator
    points: dict  # StatementId -> its ModificationPoint in the original program
    variants_evaluated: int = 0
    patches: list[FoundPatch] = field(default_factory=list)
    _seen_diffs: set = field(default_factory=set)
    original_text: str | None = None  # printed when the first diff needs it


def step_generation(
    population: list[ProgramVariant], state: _SearchState, generation: int
) -> list[ProgramVariant]:
    """Produce at most one child per parent; a fitness-zero child is a patch."""
    config = state.config
    children: list[ProgramVariant] = []
    for parent in population:
        child = _spawn_child(parent, state, generation)
        if child is None:
            continue
        children.append(child)
        if child.fitness == 0 and len(state.patches) < config.max_patches:
            if state.original_text is None:
                state.original_text = pretty_print(state.original)
            diff = make_diff(state.original_text, pretty_print(child.ast), child.ast.source_name)
            if diff not in state._seen_diffs:
                state._seen_diffs.add(diff)
                state.patches.append(FoundPatch(diff, list(child.lineage), generation))
    return children


def _spawn_child(parent: ProgramVariant, state: _SearchState, generation: int) -> ProgramVariant | None:
    config = state.config
    for _ in range(REDRAW_ATTEMPTS):
        point = state.points[state.navigator.pick().statement]
        try:
            pool = EMPTY_POOL
            if config.mode == "jgenprog":
                pool = harvest_ingredients(parent.ast, point, config.ingredient_scope)
            ops = enumerate_ops(config.mode, point, parent.ast, pool)
        except PatchSkip:
            continue
        if not ops:
            continue
        op = ops[state.rng.randrange(len(ops))]
        try:
            child_ast, concrete = apply_patch_op(parent.ast, op, state.rng)
        except PatchSkip:
            continue
        concrete.generation = generation
        run = fitness(
            child_ast,
            state.suite,
            state.originally_failing,
            config.step_budget,
            config.fast_validation,
            parent,
        )
        state.variants_evaluated += 1
        failures = sum(1 for _, passed in run if not passed)
        lineage = parent.lineage + [concrete]
        return ProgramVariant(child_ast, lineage, failures, generation, run.records)
    return None


def evolve(original: SourceUnit, suite: list[TestCase], config: EngineConfig) -> RepairOutcome:
    """Run the full search; deterministic given `config.seed`.

    Raises NoFailingTest when the suite already passes and
    UnlocalizableFault when no statement is suspicious.

    The search runs with CPython's cyclic garbage collector paused, as
    `timeit` runs its statement: the search makes no reference cycles, so
    reference counting frees all it drops, and a collection pass would
    free nothing while it walks every live object. The collector's state
    is restored on return and on any exception, and no collection is made
    then. The switch is process-wide: another thread's cycles wait until
    the search ends.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return _search(original, suite, config)
    finally:
        if paused:
            gc.enable()


def _search(original: SourceUnit, suite: list[TestCase], config: EngineConfig) -> RepairOutcome:
    """The search `evolve` runs with the collector paused."""
    started = time.perf_counter()
    matrix = build_matrix(original, suite, config.step_budget)
    if matrix.total_fail == 0:
        raise NoFailingTest("all tests pass on the input program")
    ranked = rank(matrix, config.formula)
    if not ranked:
        raise UnlocalizableFault("no statement has a positive suspiciousness score")

    rng = random.Random(config.seed)
    state = _SearchState(
        original=original,
        suite=suite,
        originally_failing=matrix.failing_test_names,
        config=config,
        rng=rng,
        navigator=Navigator(ranked, config.navigation, rng),
        points={sid: ModificationPoint(sid, path) for sid, path, _ in iter_statement_paths(original)},
    )
    state.variants_evaluated = 1  # the original program, measured by the matrix

    records = tuple(_record(row.passed, row.executed) for row in matrix.rows)
    population = init_population(original, config.population_size, matrix.total_fail, records)
    best_per_generation: list[int] = []
    generations_run = 0
    for generation in range(1, config.max_generations + 1):
        children = step_generation(population, state, generation)
        population = select(population, children, config.population_size)
        best_per_generation.append(min(v.fitness for v in population))
        generations_run = generation
        if config.check_lineages:
            for survivor in population:
                replayed = replay_lineage(original, survivor.lineage)
                if pretty_print(replayed) != pretty_print(survivor.ast):
                    raise AssertionError(
                        f"lineage replay diverged for a generation-{generation} survivor"
                    )
        if len(state.patches) >= config.max_patches:
            break

    return RepairOutcome(
        status=STATUS_PATCH_FOUND if state.patches else STATUS_EXHAUSTED,
        patches=state.patches,
        generations_run=generations_run,
        variants_evaluated=state.variants_evaluated,
        per_generation_best_fitness=best_per_generation,
        wall_time_seconds=time.perf_counter() - started,
        seed=config.seed,
        config=config,
        spectrum=ranked,
    )


def replay_lineage(original: SourceUnit, lineage: list[PatchOp]) -> SourceUnit:
    """Re-apply a concrete lineage to the original program."""
    unit = original
    for op in lineage:
        unit, _ = apply_patch_op(unit, op)
    return unit


def make_diff(original_text: str, repaired_text: str, name: str = "program") -> str:
    """Unified diff between canonical prints; applies cleanly with patch(1)."""
    label = name if name.endswith(".ml") else f"{name}.ml"
    lines = difflib.unified_diff(
        original_text.splitlines(keepends=True),
        repaired_text.splitlines(keepends=True),
        fromfile=f"a/{label}",
        tofile=f"b/{label}",
    )
    return "".join(lines)
