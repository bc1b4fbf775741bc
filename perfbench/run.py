"""The repair benchmark: one workload, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. With `--trace 0` it times set-up in several
fresh processes, then runs the workload's jobs in one fresh worker
process for about `--seconds` seconds and reports the end-to-end metrics.
With `--trace 1` it runs one pass of jobs untraced and the same pass
traced, and reports the per-layer metrics instead. Either way every job's
outcome is checked against pinned.json and every reported patch is
re-applied and re-run against the full suite; the last line of standard
output is one JSON object:

    {"correct": true, "attempted": 51, "failed": 0, "metrics": {"setup_s": {"value": 0.1, "unit": "s"}, ...}}

See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_SAMPLES = 20  # set-up-only processes, after one unmeasured warm-up; plus the measuring worker
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def run_worker(argv: list[str], timeout: float) -> tuple[float, str]:
    """Run worker.py; return (seconds from launch to its `ready` line, the rest of its output)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return ready_s, rest


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of `n` jobs beyond it.

    Never below the median: with fewer than 20 jobs the tail is the p50.
    """
    return max(50, min(99, 100 * (n - 10) // n))


def nearest_rank(sorted_values: list[float], p: int) -> float:
    """The p-th percentile of sorted values by the nearest-rank method."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    jobs = result["jobs"]
    times = sorted(job["seconds"] for job in jobs)
    level = tail_percentile(len(times))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "verdict_s.p50": (nearest_rank(times, 50), "s"),
        "verdict_s.tail": (nearest_rank(times, level), "s"),
        "variants_per_s": (sum(job["variants"] for job in jobs) / sum(times), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "verdict_s.p50": f"over all {len(times)} jobs",
        "verdict_s.tail": f"p{level} over the same {len(times)} jobs",
        "variants_per_s": f"{sum(job['variants'] for job in jobs)} variants",
    }
    lines = [f"  {name:<16} {value:>12.6g} {unit:<4} {notes.get(name, '')}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    try:
        if args.trace:
            _, out = run_worker([*worker_argv, "--trace", "1"], WORKER_TIMEOUT_S)
            setup_samples: list[float] = []
        else:
            setup_only = ["--workload", args.workload, "--setup-only"]
            run_worker(setup_only, SETUP_TIMEOUT_S)  # warm-up: fills the bytecode cache
            # Half the set-up samples before the jobs and half after, so a
            # burst of load on the machine does not cover all of them.
            setup_samples = [run_worker(setup_only, SETUP_TIMEOUT_S)[0] for _ in range(SETUP_SAMPLES // 2)]
            ready_s, out = run_worker([*worker_argv, "--trace", "0"], WORKER_TIMEOUT_S)
            setup_samples.append(ready_s)
            setup_samples += [run_worker(setup_only, SETUP_TIMEOUT_S)[0] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        result = json.loads(out.strip().splitlines()[-1])
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    jobs = result["jobs"]
    failed = sum(1 for job in jobs if job["problems"])
    problems = result["problems"] + [p for job in jobs for p in job["problems"]]
    for problem in problems[:20]:
        print(f"run.py: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: tuple(value) for name, value in result["layers"].items()}
        lines = [f"  {name:<34} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics, lines = end_to_end(result, setup_samples)
    print(
        f"{args.workload} seed {args.seed}: {len(jobs)} jobs in {result['passes']} pass(es), "
        f"{failed} failed (failed_ratio {failed / max(1, len(jobs)):.4g})"
    )
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(jobs),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
