"""The evolutionary repair loop.

The search starts from a population of clones of the buggy program.
Each generation, every parent receives one transformation at a point
chosen by navigating the suspiciousness ranking (computed once, on the
original program, and re-resolved per variant by structural path), the
children's fitness (failing-test count) is measured in the only run of
their suites, which is also their validation: a child that fails no test
is a patch. The best of parents plus children survive. A child's run
reuses its parent's: a test that never entered the one function the
child edits keeps the parent's verdict without running. Its cost follows
the tests it runs, not the suite: the run order is fixed once per
search, and a parent's records are indexed once, by the functions each
test began, so a child looks up the tests of its edited function, runs
those, and copies the rest of its parent's verdicts, records and failure
count. The run stops when enough patches have been collected or the
generation budget is spent. Given the same inputs and seed, a run is
fully deterministic.
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
from minirepair.minilang.testsuite import TestCase, run_test
from minirepair.operators import (
    EMPTY_POOL,
    MODES,
    SCOPES,
    PatchOp,
    PatchSkip,
    apply_patch_op,
    enumerate_ops,
    function_points,
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


def run_order(suite: list[TestCase], originally_failing: list[str]) -> tuple[int, ...]:
    """The suite positions in two-phase order: the originally failing tests
    first, then the rest, each in suite order."""
    first = set(originally_failing)
    order = [i for i, t in enumerate(suite) if t.name in first]
    return tuple(order + [i for i, t in enumerate(suite) if t.name not in first])


class RecordIndex:
    """A variant's `records`, by run order, as a child's `fitness` reads
    them: `verdicts`, its verdicts in `order` (None where it has no
    record), `failures` among them, `by_function`, for each function name
    the run-order positions of the tests that began it, and `unknown`, the
    positions with no record. Built for one `suite` and `order`."""

    __slots__ = ("records", "suite", "order", "verdicts", "failures", "by_function", "unknown")

    def __init__(self, records: tuple, suite: list[TestCase], order: tuple[int, ...]):
        self.records, self.suite, self.order = records, suite, order
        self.verdicts: list[tuple[str, bool] | None] = []
        self.failures = 0
        self.by_function: dict[str, list[int]] = {}
        self.unknown: list[int] = []
        for k, i in enumerate(order):
            record = records[i]
            if record is None:
                self.unknown.append(k)
                self.verdicts.append(None)
                continue
            passed, functions = record
            self.verdicts.append((suite[i].name, passed))
            self.failures += not passed
            for name in functions:
                self.by_function.setdefault(name, []).append(k)


@dataclass
class ProgramVariant:
    ast: SourceUnit
    lineage: list[PatchOp]
    fitness: int
    generation_born: int
    # By suite position, the `TestRecord` of each test its suite run
    # reached; None for a test a fast run stopped before.
    records: tuple[TestRecord | None, ...] = ()
    # `records` indexed by `fitness` when the variant is first a parent;
    # `init_population`'s clones share the original's.
    index: RecordIndex | None = field(default=None, compare=False, repr=False)


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
    None for a test the run stopped before, and `failures` counts the
    failed verdicts."""

    def __new__(
        cls, verdicts: list[tuple[str, bool]], records: tuple[TestRecord | None, ...], failures: int
    ):
        run = super().__new__(cls, verdicts)
        run.records = records
        run.failures = failures
        return run


def fitness(
    unit: SourceUnit,
    suite: list[TestCase],
    originally_failing: list[str],
    step_budget: int,
    fast: bool = False,
    parent: ProgramVariant | None = None,
    order: tuple[int, ...] | None = None,
) -> SuiteRun:
    """Run the suite once; `(test name, passed)` for each test run.

    Tests run in two-phase order: the originally failing ones first,
    then the rest, each in suite order. `order` is that order, as
    `run_order` gives it, from a caller that computed it once for many
    calls. Runtime errors and budget blowups fail. With `fast`, the run
    stops at the first failure, so the failure count is a lower bound
    (exact whenever it is zero).

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

    Without `fast`, the parent's records are read through its
    `RecordIndex`, built once per parent (and `order`): the run copies the
    parent's verdicts and records, runs the tests the index lists under
    the unshared functions and those with no record, in run order, and
    counts its failures from the verdicts they change. A fast run, and
    any run whose parent cannot stand in, walks the order test by test;
    both run the same tests.
    """
    if order is None:
        order = run_order(suite, originally_failing)
    edited = _unshared_functions(unit, parent, len(suite))
    if edited is not None and not fast:
        return _rerun(unit, step_budget, _index_of(parent, suite, order), edited)
    records: list[TestRecord | None] = [None] * len(suite)
    verdicts = []
    failures = 0
    for i in order:
        record = None if edited is None else parent.records[i]
        if record is None or not edited.isdisjoint(record[1]):
            passed, result = run_test(unit, suite[i], step_budget)
            record = passed, result.functions
        records[i] = record
        verdicts.append((suite[i].name, record[0]))
        if not record[0]:
            failures += 1
            if fast:
                break
    return SuiteRun(verdicts, tuple(records), failures)


def _index_of(parent: ProgramVariant, suite: list[TestCase], order: tuple[int, ...]) -> RecordIndex:
    """The `RecordIndex` of the parent's records for `suite` and `order`,
    built and kept on it unless it has one; nothing else writes
    `ProgramVariant.index` but `init_population`."""
    index = parent.index
    if index is None or (index.records, index.suite, index.order) != (parent.records, suite, order):
        index = parent.index = RecordIndex(parent.records, suite, order)
    return index


def _rerun(unit: SourceUnit, step_budget: int, index: RecordIndex, edited: set[str]) -> SuiteRun:
    """The run of `unit` given its parent's `index`: it reruns the tests the
    index lists under an `edited` function or as unknown, in run order,
    and copies the parent's other verdicts and records."""
    positions = index.unknown
    for name in edited:
        positions = positions + index.by_function.get(name, [])
    if len(edited) > 1 or index.unknown:
        positions = sorted(set(positions))
    records, suite, order = index.records, index.suite, index.order
    verdicts = list(index.verdicts)
    changed = list(records)
    failures = index.failures
    for k in positions:
        i = order[k]
        old = records[i]
        if old is not None and not old[0]:
            failures -= 1
        test = suite[i]
        passed, result = run_test(unit, test, step_budget)
        changed[i] = passed, result.functions
        verdicts[k] = test.name, passed
        if not passed:
            failures += 1
    return SuiteRun(verdicts, tuple(changed), failures)


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
    original: SourceUnit,
    n: int,
    original_fitness: int,
    records: tuple[TestRecord | None, ...] = (),
    index: RecordIndex | None = None,
) -> list[ProgramVariant]:
    """n clones of the input program, all with its fitness, its test
    records, the one `index` of them and empty lineage."""
    if n < 1:
        raise ValueError("population size must be >= 1")
    return [ProgramVariant(original, [], original_fitness, 0, records, index) for _ in range(n)]


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
    order: tuple[int, ...]  # `run_order` of the suite
    config: EngineConfig
    rng: random.Random
    navigator: Navigator
    points: dict  # StatementId -> its ModificationPoint in the original program
    variants_evaluated: int = 0
    # `harvest_ingredients`' pools of this generation's parents, by unit
    pools: dict = field(default_factory=dict)
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
    state.pools.clear()
    return children


def _spawn_child(parent: ProgramVariant, state: _SearchState, generation: int) -> ProgramVariant | None:
    config = state.config
    for _ in range(REDRAW_ATTEMPTS):
        point = state.points[state.navigator.pick().statement]
        try:
            pool = EMPTY_POOL
            if config.mode == "jgenprog":
                pool = harvest_ingredients(parent.ast, point, config.ingredient_scope, state.pools)
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
            state.order,
        )
        state.variants_evaluated += 1
        lineage = parent.lineage + [concrete]
        return ProgramVariant(child_ast, lineage, run.failures, generation, run.records)
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
    points = dict(pair for fn in original.functions for pair in function_points(fn))
    matrix = build_matrix(original, suite, config.step_budget, tuple(points))
    if matrix.total_fail == 0:
        raise NoFailingTest("all tests pass on the input program")
    ranked = rank(matrix, config.formula)
    if not ranked:
        raise UnlocalizableFault("no statement has a positive suspiciousness score")

    rng = random.Random(config.seed)
    failing = matrix.failing_test_names
    state = _SearchState(
        original=original,
        suite=suite,
        originally_failing=failing,
        order=run_order(suite, failing),
        config=config,
        rng=rng,
        navigator=Navigator(ranked, config.navigation, rng),
        points=points,
    )
    state.variants_evaluated = 1  # the original program, measured by the matrix

    records = tuple((row.passed, row.functions) for row in matrix.rows)
    index = RecordIndex(records, suite, state.order)
    population = init_population(original, config.population_size, matrix.total_fail, records, index)
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
