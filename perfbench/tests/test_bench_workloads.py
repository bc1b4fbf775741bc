import hashlib
import json
import subprocess
import sys

import pytest

import run
import worker
import workloads

from minirepair.cli import main as repair_main
from minirepair.minilang import parse
from minirepair.minilang.testsuite import load_suite, run_test


def test_merged_unit_is_the_whole_corpus_in_one_unit():
    program, tests = workloads.merged_unit_sources()
    assert workloads.merged_unit_sources() == (program, tests)
    unit = parse(program, source_name=workloads.MERGED)
    suite = load_suite(tests, unit)
    assert len(unit.functions) == 14
    assert len(suite) == 54 and len({t.name for t in suite}) == 54
    assert any(not run_test(unit, t, 2000)[0] for t in suite)
    assert worker.check_merged_unit({workloads.MERGED: (unit, suite)}) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pool_job_is_pinned_and_in_exactly_one_stratum(name):
    pinned = workloads.load_pinned()[name]
    pool = workloads.job_pool(name)
    assert sorted(job.key for job in pool) == sorted(pinned)
    cut = workloads.strata(name, pool, pinned)
    sampled = [job.key for members in cut for job in members]
    assert len(sampled) == len(set(sampled)) and set(sampled) <= set(pinned)
    if name != "loop-mut":  # loop-mut leaves out classes too rare to fill half a slot
        assert sorted(sampled) == sorted(pinned)
    if name == "loop-mut":  # strata never mix cost classes
        classes = [{(pinned[j.key]["loop_class"], pinned[j.key]["exhausted_runs"]) for j in m} for m in cut]
        assert all(len(c) == 1 and "" not in next(iter(c)) for c in classes)


@pytest.mark.parametrize("name", ["loop-mut", "genprog-wide"])
def test_seed_picks_engine_seeds_one_per_stratum(name):
    pinned = workloads.load_pinned()[name]
    cut = workloads.strata(name, workloads.job_pool(name), pinned)
    first = workloads.pass_jobs(name, cut, 0, 0)
    assert first == workloads.pass_jobs(name, cut, 0, 0)
    assert len(first) == len(cut)
    assert all(sum(1 for job in first if job in members) == 1 for members in cut)
    assert set(first) != set(workloads.pass_jobs(name, cut, workloads.HELD_OUT_SEED, 0))


def test_corpus_default_runs_what_repair_corpus_runs(tmp_path):
    assert repair_main(["--corpus", str(workloads.CORPUS), "--out", str(tmp_path)]) == 0
    pinned = workloads.load_pinned()["corpus-default"]
    for job in workloads.job_pool("corpus-default"):
        report = json.loads((tmp_path / job.target / dict(job.config)["mode"] / "report.json").read_text())
        report.pop("wall_time_seconds")
        digest = hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()
        assert digest == pinned[job.key]["report_sha256"], job.key
        assert (report["status"] == "patch_found") == job.expect_repair


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail_percentile(5) == run.tail_percentile(19) == 50
    for n in (20, 37, 54, 200, 5000):
        level = run.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.nearest_rank(values, level))
        assert beyond >= 10
        assert level == 99 or sum(1 for v in values if v > run.nearest_rank(values, level + 1)) < 10


def _traced(seed):
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "worker.py"), "--workload", "corpus-default", "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_two_traced_runs_give_identical_counters():
    first, second = _traced(3), _traced(3)
    for result in (first, second):
        assert result["problems"] == [] and all(job["problems"] == [] for job in result["jobs"])
    counters = lambda r: {k: v for k, (v, unit) in r["layers"].items() if unit == "count"}  # noqa: E731
    assert counters(first) == counters(second)
    assert counters(first)["interpreter.runs"] > 0
    digests = lambda r: [(j["key"], j["report_sha256"]) for j in r["jobs"]]  # noqa: E731
    assert digests(first) == digests(second)
