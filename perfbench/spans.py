"""Spans recorded from outside the program, and the per-layer numbers built from them.

The traced run replaces the module attributes through which the engine
calls each layer with thin wrappers. A wrapper records one span
`(name, start, end, parent, job)` per call, plus the class name of any
exception it lets through (that is how `PatchSkip` reasons are counted)
and a little information about the result. Spans stay in memory, are
written out when the run ends, and the original attributes are put back.

Layer self time is a span's duration minus the part of it that its child
spans cover. Summed over every layer, self time plus the unattributed
remainder equals the traced wall time. That holds by construction, so
`span_problems` checks what it rests on: every span lies inside its
parent, every root span inside the timed window of its job (set-up or one
`evolve()` call), and no two root spans overlap.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    exc: str | None = None
    info: object = None


@dataclass
class Tracer:
    """Records spans while `active`; `job` tags every span opened meanwhile."""

    spans: list[Span] = field(default_factory=list)
    active: bool = False
    job: str | None = None
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def record(self, name: str, fn, args, kwargs, info=None, probe: bool = False):
        """Call `fn` inside a span; `info(args, result)` annotates the span.

        With `probe`, the annotation itself is timed as a `trace.probe`
        span, so that its cost is not charged to the caller's layer.
        """
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.exc = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if info is not None:
            if probe:
                started = time.perf_counter()
                span.info = info(args, result)
                self.spans.append(Span("trace.probe", started, time.perf_counter(), parent, self.job))
            else:
                span.info = info(args, result)
        return result

    def wrap(self, owner, attr: str, name: str, info=None, probe: bool = False) -> None:
        """Replace `owner.attr` with a traced wrapper until `restore()`."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            return tracer.record(name, original, args, kwargs, info, probe)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append((span.end - span.start) - union_length(clipped))
    return result


def span_problems(spans: list[Span], windows: dict[str, tuple[float, float]]) -> list[str]:
    """Spans that would make self times miscount the traced wall time.

    `windows` maps each job tag to the (start, end) that the wall time
    counts for it. A root span outside its job's window, two overlapping
    root spans, or a child outside its parent means some time is counted
    twice or not at all.
    """
    problems = []
    for span in spans:
        if span.parent is None:
            window = windows.get(span.job)
            if window is None or span.start < window[0] or span.end > window[1]:
                problems.append(f"root span {span.name} of {span.job} lies outside its job's timed window")
        else:
            parent = spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                problems.append(f"span {span.name} of {span.job} lies outside its parent {parent.name}")
    roots = sorted((s.start, s.end, s.name) for s in spans if s.parent is None)
    for (_, end, name), (start, _, other) in zip(roots, roots[1:]):
        if start < end:
            problems.append(f"root spans {name} and {other} overlap")
    return problems


# --- this repository's layers ---------------------------------------------


def _program_digest(args, _result) -> str:
    from minirepair.minilang import pretty_print

    return hashlib.sha256(pretty_print(args[0]).encode()).hexdigest()


def _run_info(_args, result) -> list:
    return [result.status, result.steps_used]


def _validation_info(_args, result) -> list:
    return [result.valid, len(result.phase1), len(result.phase2), all(p for _, p in result.phase1)]


def _size(_args, result) -> int:
    return len(result)


def _pool_size(_args, result) -> int:
    return len(result.entries)


# (module, attribute, span name, annotation, timed annotation)
PROBES = (
    ("minirepair.minilang.parser", "parse", "parser", None, False),
    ("minirepair.minilang.parser", "check_unit", "checker", None, False),
    ("minirepair.engine", "build_matrix", "faultloc.matrix", None, False),
    ("minirepair.engine", "rank", "faultloc.rank", None, False),
    ("minirepair.faultloc", "Navigator.pick", "faultloc.pick", None, False),
    ("minirepair.engine", "harvest_ingredients", "operators.harvest", _pool_size, False),
    ("minirepair.engine", "enumerate_ops", "operators.enumerate", _size, False),
    ("minirepair.engine", "apply_patch_op", "operators.apply", None, False),
    ("minirepair.operators", "normalize", "operators.normalize", None, False),
    ("minirepair.operators", "check_unit", "operators.check", None, False),
    ("minirepair.engine", "fitness", "engine.fitness", _program_digest, True),
    ("minirepair.minilang.testsuite", "interpret", "interpreter", _run_info, False),
    ("minirepair.engine", "validate", "validation", _validation_info, False),
    ("minirepair.engine", "make_diff", "engine.diff", None, False),
    ("minirepair.engine", "pretty_print", "printer", None, False),
)

SKIP_REASONS = ("StalePoint", "ScopeViolation", "TypeCheckFailed", "NotApplicable", "EmptyOps")


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap every entry point named in PROBES (the engine's calls into each layer)."""
    for module_name, attr, name, info, probe in PROBES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.wrap(owner, leaf, name, info, probe)


def layer_metrics(
    spans: list[Span],
    wall_s: float,
    overhead_ratio: float,
    variants: int,
    original_digests: dict[str, str],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    `wall_s` is the traced wall time the spans fall in, `overhead_ratio`
    the traced jobs' time over the same jobs' time untraced, `variants` the jobs' summed
    `variants_evaluated`, and `original_digests` maps each job to the
    digest of its input program, which counts as one distinct program.
    """
    selfs = self_times(spans)
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    count_by: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        self_by[span.name] = self_by.get(span.name, 0.0) + own
        total_by[span.name] = total_by.get(span.name, 0.0) + (span.end - span.start)
        count_by[span.name] = count_by.get(span.name, 0) + 1

    runs = [s.info for s in spans if s.name == "interpreter"]
    steps = sum(r[1] for r in runs)
    exhausted = [r for r in runs if r[0] == "budget_exhausted"]
    validations = [s.info for s in spans if s.name == "validation"]
    harvests = [s for s in spans if s.name == "operators.harvest"]
    enumerations = [s for s in spans if s.name == "operators.enumerate"]
    skips = {reason: 0 for reason in SKIP_REASONS}
    for span in spans:
        if span.exc in skips and span.name.startswith("operators."):
            skips[span.exc] += 1
    skips["EmptyOps"] = sum(1 for s in enumerations if s.info == 0)
    steps_under: dict[int, int] = {}
    for span in spans:
        if span.name == "interpreter" and span.parent is not None:
            steps_under[span.parent] = steps_under.get(span.parent, 0) + span.info[1]
    # A fitness call on a program its job has already seen is what a memo saves.
    distinct: dict[str, set] = {job: {digest} for job, digest in original_digests.items()}
    duplicate_steps = 0
    for index, span in enumerate(spans):
        if span.name == "engine.fitness":
            seen = distinct.setdefault(span.job, set())
            if span.info in seen:
                duplicate_steps += steps_under.get(index, 0)
            seen.add(span.info)
    picks = count_by.get("faultloc.pick", 0)
    fitness_calls = count_by.get("engine.fitness", 0)
    interpreter_self = self_by.get("interpreter", 0.0)
    operator_time = sum(total_by.get(n, 0.0) for n in ("operators.harvest", "operators.enumerate", "operators.apply"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "trace.wall_s": (wall_s, "s"),
        "trace.unattributed_s": (wall_s - sum(selfs), "s"),
        "trace.probe_s": (self_by.get("trace.probe", 0.0), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "interpreter.runs": (len(runs), "count"),
        "interpreter.steps": (steps, "count"),
        "interpreter.self_s": (interpreter_self, "s"),
        "interpreter.self_share": (ratio(interpreter_self, wall_s), "ratio"),
        "interpreter.steps_per_s": (ratio(steps, interpreter_self), "1/s"),
        "interpreter.exhausted_runs": (len(exhausted), "count"),
        "interpreter.exhausted_step_share": (ratio(sum(r[1] for r in exhausted), steps), "ratio"),
        "interpreter.trap_runs": (sum(1 for r in runs if r[0] == "runtime_error"), "count"),
        "interpreter.runs_per_variant": (ratio(len(runs), variants), "ratio"),
        "engine.self_s": (self_by.get("engine", 0.0), "s"),
        "engine.distinct_ratio": (ratio(sum(len(d) for d in distinct.values()), variants), "ratio"),
        "engine.duplicate_step_share": (ratio(duplicate_steps, steps), "ratio"),
        "engine.fitness.calls": (fitness_calls, "count"),
        "engine.fitness.self_s": (self_by.get("engine.fitness", 0.0), "s"),
        "engine.diff.self_s": (self_by.get("engine.diff", 0.0), "s"),
        "operators.draws": (picks, "count"),
        **{f"operators.skip.{reason}": (n, "count") for reason, n in skips.items()},
        "operators.useful_ratio": (ratio(fitness_calls, picks), "ratio"),
        "operators.share": (ratio(operator_time, wall_s), "ratio"),
        "operators.harvest.calls": (len(harvests), "count"),
        "operators.harvest.self_s": (self_by.get("operators.harvest", 0.0), "s"),
        "operators.harvest.pool_size": (
            ratio(sum(s.info for s in harvests if s.info is not None), len(harvests)),
            "count",
        ),
        "operators.apply.calls": (count_by.get("operators.apply", 0), "count"),
        "operators.apply.self_s": (self_by.get("operators.apply", 0.0), "s"),
        "operators.normalize.self_s": (self_by.get("operators.normalize", 0.0), "s"),
        "operators.check.self_s": (self_by.get("operators.check", 0.0), "s"),
        "operators.enumerate.self_s": (self_by.get("operators.enumerate", 0.0), "s"),
        "operators.enumerate.ops": (sum(s.info for s in enumerations if s.info is not None), "count"),
        "faultloc.matrix_s": (self_by.get("faultloc.matrix", 0.0), "s"),
        "faultloc.rank_s": (self_by.get("faultloc.rank", 0.0), "s"),
        "faultloc.pick_s": (self_by.get("faultloc.pick", 0.0), "s"),
        "faultloc.picks": (picks, "count"),
        "validation.calls": (len(validations), "count"),
        "validation.valid": (sum(1 for v in validations if v[0]), "count"),
        "validation.phase1_rejects": (sum(1 for v in validations if not v[3]), "count"),
        "validation.runs": (sum(v[1] + v[2] for v in validations), "count"),
        "validation.self_s": (self_by.get("validation", 0.0), "s"),
        "parser.self_s": (self_by.get("parser", 0.0), "s"),
        "checker.self_s": (self_by.get("checker", 0.0), "s"),
        "printer.self_s": (self_by.get("printer", 0.0), "s"),
    }
    return m
