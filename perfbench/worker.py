"""One benchmark run in a fresh process: set up, run jobs, check every outcome.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1 [--setup-only]

The worker prints `ready` as soon as set-up is done (minirepair imported,
programs parsed and type-checked, suites loaded), just before the first
`evolve()` call; `run.py` times set-up from process start to that line.
Then it runs passes of jobs, one at a time, and prints one JSON object
with a record per job. `--setup-only` stops after `ready`.

With `--trace 1` it runs one pass without tracing and the same pass again
with the layer probes of `spans.py` installed, checks that both give the
same reports, and adds the per-layer metrics to its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from patchapply import PatchError, apply_unified_diff  # noqa: E402

MIN_PASSES = 3


def report_digest(outcome) -> str:
    """sha256 of report.json without `wall_time_seconds`, the one run-dependent field."""
    report = outcome.report_dict()
    report.pop("wall_time_seconds")
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


def outcome_record(outcome) -> dict:
    """The fields of an outcome that pinned.json fixes for each job."""
    return {
        "status": outcome.status,
        "generations_run": outcome.generations_run,
        "variants_evaluated": outcome.variants_evaluated,
        "patches": len(outcome.patches),
        "report_sha256": report_digest(outcome),
    }


def patch_problems(outcome, unit, suite, step_budget: int) -> list[str]:
    """Apply each reported diff to the canonical print, re-parse, run the full suite."""
    from minirepair.minilang import MiniLangError, parse, pretty_print
    from minirepair.minilang.testsuite import run_test

    original = pretty_print(unit)
    problems = []
    for k, patch in enumerate(outcome.patches, start=1):
        try:
            repaired = parse(apply_unified_diff(original, patch.diff))
        except (PatchError, MiniLangError) as exc:
            problems.append(f"patch {k}: {exc}")
            continue
        failing = [t.name for t in suite if not run_test(repaired, t, step_budget)[0]]
        if failing:
            problems.append(f"patch {k} fails {', '.join(failing)}")
    return problems


def job_problems(job, record: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return [f"{job.key}: no pinned outcome"]
    problems = [
        f"{job.key}: {field} is {record[field]!r}, pinned {expected[field]!r}"
        for field in ("status", "generations_run", "variants_evaluated", "patches", "report_sha256")
        if record[field] != expected[field]
    ]
    if job.expect_repair is not None and (record["status"] == "patch_found") != job.expect_repair:
        problems.append(f"{job.key}: corpus declares expect_repair={job.expect_repair}")
    return problems


def load_targets(workload: str) -> dict:
    """Target name -> (unit, suite): the set-up every run pays before evolve()."""
    from minirepair.minilang import parser
    from minirepair.minilang.testsuite import load_suite

    targets = {}
    for name, (program, tests) in workloads.target_sources(workload).items():
        unit = parser.parse(program, source_name=name)
        targets[name] = (unit, load_suite(tests, unit))
    return targets


def run_job(job, targets: dict, pinned: dict, tracer=None) -> dict:
    """Run one job (timing only the evolve() call) and check its outcome."""
    from minirepair.engine import EngineConfig, evolve

    unit, suite = targets[job.target]
    config = EngineConfig(**job.engine_kwargs())
    started = time.perf_counter()
    try:
        if tracer is None:
            outcome = evolve(unit, suite, config)
        else:
            tracer.job, tracer.active = job.key, True
            try:
                outcome = tracer.record("engine", evolve, (unit, suite, config), {})
            finally:
                tracer.active = False
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        ended = time.perf_counter()
        return {
            "key": job.key,
            "seconds": ended - started,
            "window": [started, ended],
            "variants": 0,
            "problems": [f"{job.key}: {exc!r}"],
        }
    ended = time.perf_counter()
    record = outcome_record(outcome)
    problems = job_problems(job, record, pinned.get(job.key))
    problems += [f"{job.key}: {p}" for p in patch_problems(outcome, unit, suite, config.step_budget)]
    return {
        "key": job.key,
        "seconds": ended - started,
        "window": [started, ended],
        "variants": outcome.variants_evaluated,
        "report_sha256": record["report_sha256"],
        "problems": problems,
    }


def check_merged_unit(targets: dict) -> list[str]:
    """The genprog-wide unit must be the 14-function, 54-test merge with a failing test."""
    from minirepair.minilang.testsuite import run_test

    unit, suite = targets[workloads.MERGED]
    problems = []
    if len(unit.functions) != 14:
        problems.append(f"merged unit has {len(unit.functions)} functions, expected 14")
    if len({t.name for t in suite}) != 54 or len(suite) != 54:
        problems.append(f"merged suite has {len(suite)} tests, expected 54 uniquely named")
    if all(run_test(unit, t, workloads.WIDE_CONFIG["step_budget"])[0] for t in suite):
        problems.append("merged suite has no failing test")
    return problems


def run_passes(args, cut: list, targets: dict, pinned: dict) -> dict:
    """Untraced: whole passes for about --seconds, every job timed and checked.

    Every pass takes one job from each stratum, so all passes have the
    same cost profile and the per-job metrics do not depend on how many
    passes fit. Another pass starts only if, at the mean pass time so
    far, it would end less than half a pass after --seconds, so a run
    ends within about half a pass of --seconds. At least MIN_PASSES run,
    so that loop-mut (9 jobs a pass) has enough jobs for its tail to lie
    above its median.
    """
    records = []
    started = time.perf_counter()
    passes = 0
    while True:
        for job in workloads.pass_jobs(args.workload, cut, args.seed, passes):
            records.append(run_job(job, targets, pinned))
        passes += 1
        elapsed = time.perf_counter() - started
        if passes >= MIN_PASSES and elapsed + elapsed / passes / 2 >= args.seconds:
            break
    return {"jobs": records, "passes": passes, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_traced(args, cut: list, targets: dict, pinned: dict, tracer: spans.Tracer, setup: tuple) -> dict:
    """The first pass untraced, traced, and untraced again, plus the per-layer metrics.

    The first untraced pass warms the interpreter up and gives the
    reference digests; the last is the baseline for the tracing overhead.
    Spans that would make the self times miscount the traced wall time
    are reported as problems.
    """
    from minirepair.minilang import pretty_print

    jobs = workloads.pass_jobs(args.workload, cut, args.seed, 0)
    first = [run_job(job, targets, pinned) for job in jobs]
    traced = [run_job(job, targets, pinned, tracer) for job in jobs]
    tracer.restore()
    plain = [run_job(job, targets, pinned) for job in jobs]
    for a, b in zip(first, traced):
        if a.get("report_sha256") != b.get("report_sha256"):
            b["problems"].append(f"{a['key']}: traced report differs from the untraced one")
    traced_s = sum(r["seconds"] for r in traced)
    plain_s = sum(r["seconds"] for r in plain)
    layer = spans.layer_metrics(
        tracer.spans,
        wall_s=setup[1] - setup[0] + traced_s,
        overhead_ratio=traced_s / plain_s if plain_s else 0.0,
        variants=sum(r["variants"] for r in traced),
        original_digests={
            job.key: hashlib.sha256(pretty_print(targets[job.target][0]).encode()).hexdigest() for job in jobs
        },
    )
    windows = {"setup": setup, **{r["key"]: tuple(r["window"]) for r in traced}}
    problems = spans.span_problems(tracer.spans, windows)
    if layer["trace.unattributed_s"][0] < 0:
        problems.append(f"self times exceed the traced wall time by {-layer['trace.unattributed_s'][0]:.6g} s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    return {
        "jobs": first + traced + plain,
        "passes": 3,
        "layers": {k: list(v) for k, v in layer.items()},
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import minirepair

    if not Path(minirepair.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: minirepair imported from {minirepair.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install_layer_probes(tracer)
        tracer.job, tracer.active = "setup", True
    setup_started = time.perf_counter()
    targets = load_targets(args.workload)
    setup_ended = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    print("ready", flush=True)
    if args.setup_only:
        return 0

    pinned = workloads.load_pinned()[args.workload]
    cut = workloads.strata(args.workload, workloads.job_pool(args.workload), pinned)
    problems = check_merged_unit(targets) if args.workload == "genprog-wide" else []
    if tracer is None:
        result = run_passes(args, cut, targets, pinned)
    else:
        result = run_traced(args, cut, targets, pinned, tracer, (setup_started, setup_ended))
        problems += result.pop("problems")
        if tracer.missing:
            problems.append(f"layer probes not installed: {', '.join(tracer.missing)}")
    print(json.dumps({"problems": problems, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
