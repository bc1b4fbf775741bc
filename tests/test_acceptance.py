"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see each verdict. The
corpus harness result is computed once per session and shared by the
criteria that read it.
"""

import json
import math
import random
import time

import pytest

from minirepair.cli import build_parser, run_corpus
import minirepair.engine as engine_module
from minirepair.engine import EngineConfig, evolve, fitness
from minirepair.faultloc import (
    Navigator,
    SuspiciousStatement,
    build_matrix,
    ochiai,
    rank,
    tarantula,
    weimer_binary,
)
from minirepair.minilang import StatementId, all_statement_ids, parse, path_of, pretty_print
from minirepair.minilang.checker import check_unit
from minirepair.operators import (
    ModificationPoint,
    PatchSkip,
    apply_patch_op,
    enumerate_ops,
    harvest_ingredients,
)
from minirepair.validation import validate

from samples import CORPUS, corpus_case_names, load_corpus_case
from randprog import random_unit
from test_faultloc import brute_force_rank


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """One harness run over the shipped corpus with default settings."""
    out = tmp_path_factory.mktemp("corpus_out")
    args = build_parser().parse_args(["--corpus", str(CORPUS), "--out", str(out)])
    started = time.perf_counter()
    summary = run_corpus(CORPUS, args, out)
    elapsed = time.perf_counter() - started
    return summary, elapsed, out


def test_criterion_1_corpus_repair_rate(corpus_run):
    summary, elapsed, _ = corpus_run
    assert summary.expected_cases == 12
    assert summary.repaired_cases >= 10
    assert elapsed < 60.0
    report(
        "1 corpus repair rate",
        f"{summary.repaired_cases}/{summary.expected_cases} repaired in {elapsed:.1f}s",
    )


def test_criterion_2_mode_coverage(corpus_run):
    summary, _, _ = corpus_run
    repaired = [run for run in summary.runs if run.status == "patch_found"]

    def kinds_for(mode):
        return {kind for run in repaired if run.mode == mode for kind in run.patch_kinds}

    genprog = kinds_for("jgenprog")
    assert "InsertBefore" in genprog, "jgenprog must land an insertion repair"
    assert "Replace" in genprog, "jgenprog must land a replacement repair"
    assert "TemplateGuardArrayAccess" in kinds_for("jpar")
    assert "MutRelationalOp" in kinds_for("jmutrepair")
    report(
        "2 mode coverage",
        "jgenprog insert+replace, jpar array guard, jmutrepair relational swap all observed",
    )


def test_criterion_3_fault_localization_oracle():
    checked = 0
    for name in corpus_case_names():
        unit, suite, meta = load_corpus_case(name)
        budget = meta.get("config", {}).get("step_budget", 100_000)
        run = build_matrix(unit, suite, budget)
        if run.failures == 0:
            continue
        order = tuple(all_statement_ids(unit))
        for formula in ("ochiai", "tarantula", "weimer"):
            ranked = rank(run, formula, order)
            expected = brute_force_rank(run, formula, order)
            assert [s.statement for s in ranked] == [s for s, _ in expected]
            for got, (_, want) in zip(ranked, expected):
                assert abs(got.score - want) <= 1e-9
            checked += 1
    report("3 fault localization oracle", f"{checked} program/formula rankings matched")


def test_criterion_4_formula_unit_values():
    assert ochiai(1, 1, 0) == 1 / math.sqrt(2)
    assert tarantula(1, 1, 1, 2) == 2 / 3
    assert weimer_binary(3, 2) == 0.1
    report("4 formula unit values", "ochiai=1/sqrt(2), tarantula=2/3, weimer=0.1 exact")


def test_criterion_5_two_phase_discard(buggy_max, max_suite, monkeypatch):
    degenerate = parse("fn max(a: int, b: int) -> int { return 5; }")
    result = validate(fitness(degenerate, max_suite, ["t1"], 1000), ["t1"])
    assert result.phase1 == (("t1", True),)
    assert result.phase2 == (("t2", False),)
    assert not result.valid

    executions = []
    real_run_test = engine_module.run_test

    def counting(unit, test, budget):
        executions.append(test.name)
        return real_run_test(unit, test, budget)

    monkeypatch.setattr(engine_module, "run_test", counting)
    failing_phase1 = validate(fitness(buggy_max, max_suite, ["t1"], 1000, fast=True), ["t1"])
    assert not failing_phase1.valid and failing_phase1.phase2 == ()
    assert executions == ["t1"], "no phase-2 test may run after a phase-1 failure"
    report(
        "5 two-phase discard",
        "hardcoded return-5 candidate discarded in phase 2; phase-1 failure ran zero regressions",
    )


def test_criterion_6_deterministic_reports():
    cases = [("max_flipped_comparison", "jmutrepair"), ("double_sum_missing_add", "jgenprog")]
    for name, mode in cases:
        unit, suite, meta = load_corpus_case(name)
        cfg = dict(mode=mode, seed=meta["seed"])
        cfg.update(meta.get("config", {}))
        reports = []
        for _ in range(2):
            outcome = evolve(unit, suite, EngineConfig(**cfg))
            body = outcome.report_dict()
            body.pop("wall_time_seconds")
            reports.append(json.dumps(body, indent=2, sort_keys=True))
        assert reports[0] == reports[1]
    report("6 determinism", f"byte-identical reports (wall time excluded) on {len(cases)} cases")


def test_criterion_7_elitism_invariant(corpus_run):
    _, _, out = corpus_run
    checked = 0
    for report_path in sorted(out.glob("*/*/report.json")):
        body = json.loads(report_path.read_text())
        best = body["per_generation_best_fitness"]
        assert all(b <= a for a, b in zip(best, best[1:])), report_path
        checked += 1
    assert checked >= 13
    report("7 elitism invariant", f"best fitness non-increasing in {checked} corpus runs")


def test_criterion_8_weighted_navigation_distribution():
    ranked = [
        SuspiciousStatement(StatementId("f", 0), 0.8, 1, 0, 0, 0),
        SuspiciousStatement(StatementId("f", 1), 0.2, 1, 0, 0, 0),
    ]
    navigator = Navigator(ranked, "weighted", random.Random(42))
    draws = 100_000
    hits = sum(1 for _ in range(draws) if navigator.pick().statement.index == 0)
    frequency = hits / draws
    assert abs(frequency - 0.80) <= 0.01
    report("8 weighted navigation", f"first statement drawn {frequency:.4f} of {draws} times")


def test_criterion_9_operation_validity():
    units = [load_corpus_case(name)[0] for name in corpus_case_names()]
    rng = random.Random(2024)
    applied = skipped = 0
    while applied + skipped < 1000:
        unit = rng.choice(units)
        sid = rng.choice(all_statement_ids(unit))
        point = ModificationPoint(sid, path_of(unit, sid))
        mode = rng.choice(("jgenprog", "jpar", "jmutrepair"))
        pool = None
        if mode == "jgenprog":
            pool = harvest_ingredients(unit, point, rng.choice(("local", "global")))
        ops = enumerate_ops(mode, point, unit, pool) if pool else enumerate_ops(mode, point, unit)
        if not ops:
            continue
        op = rng.choice(ops)
        try:
            child, _ = apply_patch_op(unit, op, rng)
        except PatchSkip:
            skipped += 1
            continue
        check_unit(child)
        applied += 1
    report(
        "9 operation validity",
        f"1000 draws: {applied} type-checking children, {skipped} declared skips, 0 crashes",
    )


def test_criterion_10_round_trip():
    programs = 0
    for name in corpus_case_names():
        unit, _, _ = load_corpus_case(name)
        text = pretty_print(unit)
        reparsed = parse(text, source_name=name)
        assert reparsed == unit
        assert all_statement_ids(reparsed) == all_statement_ids(unit)
        assert pretty_print(reparsed) == text
        programs += 1
    for seed in range(500):
        unit = random_unit(seed)
        text = pretty_print(unit)
        reparsed = parse(text, source_name="generated")
        assert reparsed == unit
        assert all_statement_ids(reparsed) == all_statement_ids(unit)
        assert pretty_print(reparsed) == text
        programs += 1
    report("10 round trip", f"parse-print identity held on {programs} programs")
