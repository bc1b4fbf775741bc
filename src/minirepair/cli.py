"""Command-line front end.

Single-program mode repairs one program against one test suite and
writes `report.json` plus `patch_<k>.diff` files under the output
directory. Corpus mode (`--corpus`) runs every case of a seeded-defect
corpus under each of its declared modes and writes `summary.json`.

Exit codes: 0 patch found (or corpus thresholds met), 1 search
exhausted (or thresholds missed), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import MISSING, dataclass, field
from pathlib import Path

from minirepair.engine import (
    EngineConfig,
    NoFailingTest,
    RepairOutcome,
    STATUS_PATCH_FOUND,
    UnlocalizableFault,
    evolve,
)
from minirepair.faultloc import FORMULAS, STRATEGIES, spectrum_rows
from minirepair.minilang import MiniLangError, parse
from minirepair.minilang.errors import SuiteError
from minirepair.minilang.testsuite import load_suite
from minirepair.operators import MODES, SCOPES

EXIT_PATCH_FOUND = 0
EXIT_EXHAUSTED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repair",
        description="Search-based program repair for MiniLang programs.",
    )
    parser.add_argument("--program", type=Path, help="path to the buggy .ml program")
    parser.add_argument("--tests", type=Path, help="path to the JSON test suite")
    parser.add_argument("--corpus", type=Path, help="run every case in a corpus directory")
    parser.add_argument("--mode", choices=MODES, help="repair operator family")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--population-size", type=int)
    parser.add_argument("--max-generations", type=int)
    parser.add_argument("--formula", choices=FORMULAS)
    parser.add_argument("--navigation", choices=STRATEGIES)
    parser.add_argument("--ingredient-scope", choices=SCOPES)
    parser.add_argument("--step-budget", type=int)
    parser.add_argument("--max-patches", type=int)
    parser.add_argument("--fast-validation", action="store_true")
    parser.add_argument("--dump-spectrum", action="store_true")
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument(
        "--min-repaired",
        type=int,
        default=10,
        help="corpus mode: minimum repaired cases for exit 0",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=60.0,
        help="corpus mode: wall-time threshold for exit 0",
    )
    parser.set_defaults(
        **{f.name: f.default for f in dataclasses.fields(EngineConfig) if f.default is not MISSING}
    )
    return parser


def _fail(message: str) -> int:
    print(f"repair: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def config_from_args(args: argparse.Namespace, mode: str, seed: int, overrides: dict) -> EngineConfig:
    """The engine config of one run: every `EngineConfig` field from `args`
    (`build_parser` gives each one its default), then `overrides`, a case's
    `meta.json` `config` (`{}` when it has none), which must be an object
    and may name any field but `mode` and `seed`. Raises ValueError on any
    other key and on any invalid value."""
    if not isinstance(overrides, dict):
        raise ValueError(f"meta.json config must be an object, got {overrides!r}")
    names = [f.name for f in dataclasses.fields(EngineConfig)]
    unknown = sorted(key for key in overrides if key not in names or key in ("mode", "seed"))
    if unknown:
        raise ValueError(f"meta.json config names no overridable field: {', '.join(unknown)}")
    values = {name: getattr(args, name) for name in names}
    return EngineConfig(**{**values, **overrides, "mode": mode, "seed": seed})


def _write_artifacts(out_dir: Path, outcome: RepairOutcome) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(outcome.report_json(), encoding="utf-8")
    for k, patch in enumerate(outcome.patches, start=1):
        (out_dir / f"patch_{k}.diff").write_text(patch.diff, encoding="utf-8")


def run_single(args: argparse.Namespace) -> int:
    if args.program is None or args.tests is None:
        return _fail("--program and --tests are required (or use --corpus)")
    if args.mode is None:
        return _fail("--mode is required")
    if not args.program.is_file():
        return _fail(f"program file not found: {args.program}")
    if not args.tests.is_file():
        return _fail(f"tests file not found: {args.tests}")
    try:
        unit = parse(args.program.read_text(encoding="utf-8"), source_name=args.program.stem)
    except (OSError, MiniLangError, UnicodeDecodeError) as exc:
        return _fail(f"{args.program}: {exc}")
    try:
        suite = load_suite(args.tests.read_text(encoding="utf-8"), unit)
    except (OSError, SuiteError, UnicodeDecodeError) as exc:
        return _fail(f"{args.tests}: {exc}")
    if not suite:
        return _fail(f"{args.tests}: suite contains no tests")

    try:
        config = config_from_args(args, args.mode, args.seed, {})
        outcome = evolve(unit, suite, config)
    except NoFailingTest:
        return _fail("no failing test: the program already passes its suite")
    except UnlocalizableFault:
        return _fail("fault is unlocalizable: no statement has a positive score")
    except ValueError as exc:
        return _fail(str(exc))

    _write_artifacts(args.out, outcome)
    if args.dump_spectrum:
        payload = json.dumps(spectrum_rows(outcome.spectrum), indent=2) + "\n"
        (args.out / "spectrum.json").write_text(payload, encoding="utf-8")

    if outcome.status == STATUS_PATCH_FOUND:
        print(
            f"patch found in generation {outcome.patches[0].generation} "
            f"({outcome.variants_evaluated} variants evaluated); "
            f"artifacts in {args.out}"
        )
        return EXIT_PATCH_FOUND
    print(
        f"exhausted after {outcome.generations_run} generations "
        f"({outcome.variants_evaluated} variants evaluated)"
    )
    return EXIT_EXHAUSTED


# --- corpus harness -------------------------------------------------------


@dataclass
class CaseRun:
    case: str
    mode: str
    status: str  # patch_found | exhausted | error
    generations: int
    wall_time_seconds: float
    expect_repair: bool
    patch_kinds: list[str] = field(default_factory=list)
    detail: str = ""

    def row(self) -> dict:
        return {
            "case": self.case,
            "mode": self.mode,
            "status": self.status,
            "generations": self.generations,
            "wall_time_seconds": round(self.wall_time_seconds, 3),
            "expect_repair": self.expect_repair,
            "patch_kinds": self.patch_kinds,
            "detail": self.detail,
        }


@dataclass
class CorpusSummary:
    runs: list[CaseRun]
    repaired_cases: int
    expected_cases: int
    total_wall_time_seconds: float
    min_repaired: int
    max_seconds: float

    @property
    def ok(self) -> bool:
        return (
            self.repaired_cases >= self.min_repaired
            and self.total_wall_time_seconds < self.max_seconds
        )

    def as_dict(self) -> dict:
        return {
            "cases": [run.row() for run in self.runs],
            "repaired_cases": self.repaired_cases,
            "expected_cases": self.expected_cases,
            "total_wall_time_seconds": round(self.total_wall_time_seconds, 3),
            "thresholds": {"min_repaired": self.min_repaired, "max_seconds": self.max_seconds},
            "ok": self.ok,
        }


def _run_case(
    case_dir: Path, args: argparse.Namespace, out_dir: Path | None
) -> tuple[list[CaseRun], bool]:
    """All declared-mode runs for one case; second value is 'case repaired'."""
    name = case_dir.name
    started = time.perf_counter()
    try:
        meta = json.loads((case_dir / "meta.json").read_text(encoding="utf-8"))
        unit = parse((case_dir / "program.ml").read_text(encoding="utf-8"), source_name=name)
        suite = load_suite((case_dir / "tests.json").read_text(encoding="utf-8"), unit)
        modes = meta["modes"]
        if type(modes) is not list or not modes or any(mode not in MODES for mode in modes):
            raise ValueError(f"meta.json declares invalid modes: {modes}")
        if len(set(modes)) < len(modes):
            raise ValueError(f"meta.json declares a mode twice: {modes}")
        expect_repair = meta.get("expect_repair", True)
        if not isinstance(expect_repair, bool):
            raise ValueError(f"meta.json expect_repair must be true or false: {expect_repair!r}")
        seed = meta.get("seed", args.seed)
        configs = [config_from_args(args, mode, seed, meta.get("config", {})) for mode in modes]
    except (
        OSError, ValueError, TypeError, KeyError, RecursionError, MiniLangError, SuiteError
    ) as exc:
        run = CaseRun(name, "-", "error", 0, time.perf_counter() - started, False, detail=str(exc))
        return [run], False

    runs = []
    repaired = True
    for config in configs:
        mode = config.mode
        mode_started = time.perf_counter()
        try:
            outcome = evolve(unit, suite, config)
        except (NoFailingTest, UnlocalizableFault, ValueError) as exc:
            runs.append(
                CaseRun(
                    name, mode, "error", 0, time.perf_counter() - mode_started,
                    expect_repair, detail=str(exc),
                )
            )
            repaired = False
            continue
        if out_dir is not None:
            _write_artifacts(out_dir / name / mode, outcome)
        kinds = [op.kind for op in outcome.patches[0].lineage] if outcome.patches else []
        runs.append(
            CaseRun(
                name,
                mode,
                outcome.status,
                outcome.generations_run,
                outcome.wall_time_seconds,
                expect_repair,
                patch_kinds=kinds,
            )
        )
        if outcome.status != STATUS_PATCH_FOUND:
            repaired = False
    return runs, repaired and expect_repair


def run_corpus(corpus_dir: Path, args: argparse.Namespace, out_dir: Path | None) -> CorpusSummary:
    """Run every corpus case under its declared modes with its fixed seed."""
    case_dirs = sorted(
        d for d in corpus_dir.iterdir() if d.is_dir() and (d / "program.ml").exists()
    )
    started = time.perf_counter()
    runs: list[CaseRun] = []
    repaired_cases = 0
    expected_cases = 0
    for case_dir in case_dirs:
        case_runs, repaired = _run_case(case_dir, args, out_dir)
        runs.extend(case_runs)
        if any(run.expect_repair for run in case_runs):
            expected_cases += 1
        if repaired:
            repaired_cases += 1
    return CorpusSummary(
        runs=runs,
        repaired_cases=repaired_cases,
        expected_cases=expected_cases,
        total_wall_time_seconds=time.perf_counter() - started,
        min_repaired=args.min_repaired,
        max_seconds=args.max_seconds,
    )


def _print_summary_table(summary: CorpusSummary) -> None:
    width = max([len(run.case) for run in summary.runs] + [4])
    print(f"{'case':<{width}}  {'mode':<10}  {'status':<12}  {'gens':>4}  {'time':>7}")
    for run in summary.runs:
        print(
            f"{run.case:<{width}}  {run.mode:<10}  {run.status:<12}  "
            f"{run.generations:>4}  {run.wall_time_seconds:>6.2f}s"
        )
    print(
        f"repaired {summary.repaired_cases}/{summary.expected_cases} expected-repairable cases "
        f"in {summary.total_wall_time_seconds:.1f}s"
    )


def run_corpus_cmd(args: argparse.Namespace) -> int:
    corpus_dir = args.corpus
    if not corpus_dir.is_dir():
        return _fail(f"corpus directory not found: {corpus_dir}")
    summary = run_corpus(corpus_dir, args, args.out)
    if not summary.runs:
        return _fail(f"corpus directory contains no cases: {corpus_dir}")
    args.out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n"
    (args.out / "summary.json").write_text(payload, encoding="utf-8")
    _print_summary_table(summary)
    return EXIT_PATCH_FOUND if summary.ok else EXIT_EXHAUSTED


def _out_dir_problem(out: Path) -> str | None:
    """Why `out` cannot become the output directory: it, or the nearest
    of its ancestors that exists, is not a directory."""
    for path in (out, *out.parents):
        if path.exists():
            return None if path.is_dir() else f"--out is not a directory: {path}"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _out_dir_problem(args.out)
    if problem is not None:
        return _fail(problem)
    if args.corpus is not None:
        return run_corpus_cmd(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
