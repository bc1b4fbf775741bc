import json

import pytest

import minirepair.minilang.testsuite as testsuite_module
from minirepair.engine import (
    EngineConfig,
    NoFailingTest,
    ProgramVariant,
    STATUS_EXHAUSTED,
    STATUS_PATCH_FOUND,
    evolve,
    fitness,
    init_population,
    make_diff,
    replay_lineage,
    select,
)
from minirepair.faultloc import build_matrix, rank
from minirepair.minilang import parse, pretty_print
from minirepair.minilang.testsuite import load_suite

from conftest import MAX_SUITE, load_corpus_case


def config(**kwargs):
    base = dict(mode="jmutrepair", seed=42)
    base.update(kwargs)
    return EngineConfig(**base)


# --- fitness ----------------------------------------------------------------


def failures(verdicts):
    return sum(1 for _, passed in verdicts if not passed)


def test_fitness_counts_failures(buggy_max, correct_max, max_suite):
    assert fitness(buggy_max, max_suite, ["t1"], 1000) == (("t1", False), ("t2", True))
    assert failures(fitness(correct_max, max_suite, ["t1"], 1000)) == 0


def test_fitness_counts_nontermination_as_failure():
    unit = parse("fn f(n: int) -> int { while (n > 0) { } return n; }")
    suite = load_suite(
        '{"tests": [{"name": "t", "call": {"fn": "f", "args": [5]}, "expect": 0}]}', unit
    )
    assert fitness(unit, suite, ["t"], 100) == (("t", False),)


def test_fitness_runs_the_originally_failing_tests_first(correct_max, max_suite):
    verdicts = fitness(correct_max, max_suite, ["t2"], 1000)
    assert [name for name, _ in verdicts] == ["t2", "t1"]


def test_fast_fitness_is_a_lower_bound(buggy_max, max_suite):
    exact = failures(fitness(buggy_max, max_suite, ["t1"], 1000))
    fast = failures(fitness(buggy_max, max_suite, ["t1"], 1000, fast=True))
    assert fast <= exact
    assert fast >= 1  # zero only when everything passes


# --- population management -----------------------------------------------------


def test_init_population_single(buggy_max):
    population = init_population(buggy_max, 1, 1)
    assert len(population) == 1
    assert population[0].lineage == [] and population[0].fitness == 1


def test_init_population_clones(buggy_max):
    population = init_population(buggy_max, 10, 1)
    assert len(population) == 10
    prints = {pretty_print(v.ast) for v in population}
    assert len(prints) == 1
    assert {v.fitness for v in population} == {1}


def variant(ast, fitness_, generation=0, lineage_len=0):
    return ProgramVariant(ast, [None] * lineage_len, fitness_, generation)


def test_select_keeps_the_best(buggy_max):
    parents = [variant(buggy_max, 1), variant(buggy_max, 1)]
    children = [variant(buggy_max, 0, generation=1), variant(buggy_max, 2, generation=1)]
    survivors = select(parents, children, 2)
    assert sorted(v.fitness for v in survivors) == [0, 1]


def test_select_without_children_keeps_parents(buggy_max):
    parents = [variant(buggy_max, 2), variant(buggy_max, 3)]
    survivors = select(parents, [], 2)
    assert survivors == parents


def test_select_prefers_younger_on_ties(buggy_max):
    parent = variant(buggy_max, 1, generation=0)
    child = variant(buggy_max, 1, generation=3, lineage_len=3)
    survivors = select([parent], [child], 1)
    assert survivors == [child]


def test_select_breaks_remaining_ties_by_lineage_length(buggy_max):
    a = variant(buggy_max, 1, generation=2, lineage_len=5)
    b = variant(buggy_max, 1, generation=2, lineage_len=1)
    survivors = select([a], [b], 1)
    assert survivors == [b]


# --- evolve -----------------------------------------------------------------------


def test_evolve_repairs_buggy_max(buggy_max, max_suite):
    outcome = evolve(buggy_max, max_suite, config())
    assert outcome.status == STATUS_PATCH_FOUND
    assert outcome.patches
    patch = outcome.patches[0]
    assert "if (b < m) {" in patch.diff and "-" in patch.diff
    assert outcome.generations_run >= patch.generation


def test_evolve_is_deterministic(buggy_max, max_suite):
    first = evolve(buggy_max, max_suite, config())
    second = evolve(buggy_max, max_suite, config())
    a, b = first.report_dict(), second.report_dict()
    a.pop("wall_time_seconds"), b.pop("wall_time_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_evolve_rejects_correct_program(correct_max):
    suite = load_suite(MAX_SUITE, correct_max)
    with pytest.raises(NoFailingTest):
        evolve(correct_max, suite, config())


def test_evolve_raises_when_nothing_is_suspicious(buggy_max, max_suite, monkeypatch):
    import minirepair.engine as engine_module
    from minirepair.engine import UnlocalizableFault

    monkeypatch.setattr(engine_module, "rank", lambda matrix, formula: [])
    with pytest.raises(UnlocalizableFault):
        evolve(buggy_max, max_suite, config())


def test_no_applicable_ops_means_no_children():
    # a single statement with no operator sites: every parent yields no child
    unit = parse("fn identity(x: int) -> int { return x; }")
    suite = load_suite(
        '{"tests": [{"name": "t", "call": {"fn": "identity", "args": [1]}, "expect": 2}]}',
        unit,
    )
    outcome = evolve(unit, suite, config(max_generations=3))
    assert outcome.status == STATUS_EXHAUSTED
    assert outcome.variants_evaluated == 1  # only the original was ever measured
    assert outcome.per_generation_best_fitness == [1, 1, 1]


def test_evolve_exhausts_on_unrepairable():
    unit, suite, _ = load_corpus_case("sum_digits_unrepairable")
    outcome = evolve(unit, suite, config(max_generations=5))
    assert outcome.status == STATUS_EXHAUSTED
    assert outcome.generations_run == 5
    assert outcome.patches == []
    assert len(outcome.per_generation_best_fitness) == 5


def test_a_search_runs_each_suite_once_per_program(buggy_max, max_suite, monkeypatch):
    # every run_test is one interpret call; the original runs its suite
    # for fault localization, each child for its fitness, and validation
    # reads the child's fitness run instead of running the suite again
    runs = []
    real_interpret = testsuite_module.interpret

    def counting(*args):
        runs.append(args[1])
        return real_interpret(*args)

    monkeypatch.setattr(testsuite_module, "interpret", counting)
    outcome = evolve(buggy_max, max_suite, config(max_patches=3, max_generations=10))
    assert outcome.status == STATUS_PATCH_FOUND
    assert len(runs) == len(max_suite) * outcome.variants_evaluated


def test_evolve_carries_the_ranked_spectrum(buggy_max, max_suite):
    outcome = evolve(buggy_max, max_suite, config())
    assert outcome.spectrum == rank(build_matrix(buggy_max, max_suite, 100_000), "ochiai")
    assert "spectrum" not in outcome.report_dict()


def test_variant_budget(buggy_max, max_suite):
    cfg = config(max_generations=5, population_size=4, max_patches=99)
    outcome = evolve(buggy_max, max_suite, cfg)
    assert outcome.variants_evaluated <= 4 * 5 + 1


def test_elitism_is_monotone(buggy_max, max_suite):
    outcome = evolve(buggy_max, max_suite, config(max_patches=99, max_generations=12))
    best = outcome.per_generation_best_fitness
    assert all(later <= earlier for earlier, later in zip(best, best[1:]))


def test_patch_lineage_replays_to_a_passing_program(buggy_max, max_suite):
    outcome = evolve(buggy_max, max_suite, config())
    patch = outcome.patches[0]
    replayed = replay_lineage(buggy_max, patch.lineage)
    assert failures(fitness(replayed, max_suite, ["t1"], 1000)) == 0
    assert make_diff(pretty_print(buggy_max), pretty_print(replayed), "max") == patch.diff


def test_report_schema(buggy_max, max_suite):
    report = evolve(buggy_max, max_suite, config()).report_dict()
    assert set(report) == {
        "status",
        "seed",
        "config",
        "generations_run",
        "variants_evaluated",
        "patches",
        "per_generation_best_fitness",
        "wall_time_seconds",
    }
    assert set(report["patches"][0]) == {"diff", "lineage", "generation"}
    entry = report["patches"][0]["lineage"][0]
    assert set(entry) == {"kind", "statement_id", "payload_summary", "generation"}


def test_run_stops_at_generation_boundary(buggy_max, max_suite):
    outcome = evolve(buggy_max, max_suite, config())
    # the finding generation completes: best fitness is recorded for it
    assert len(outcome.per_generation_best_fitness) == outcome.generations_run
    assert outcome.per_generation_best_fitness[-1] == 0


def test_max_patches_collects_distinct_repairs(buggy_max, max_suite):
    outcome = evolve(buggy_max, max_suite, config(max_patches=3, max_generations=20))
    diffs = [p.diff for p in outcome.patches]
    assert len(diffs) == len(set(diffs))
    assert len(diffs) >= 2


@pytest.mark.parametrize(
    "name", ["max_flipped_comparison", "double_sum_missing_add", "total_area_wrong_arg"]
)
def test_lineage_replay_debug_mode(name):
    unit, suite, meta = load_corpus_case(name)
    cfg = dict(meta.get("config", {}))
    cfg.update(mode=meta["modes"][0], seed=meta["seed"], check_lineages=True)
    outcome = evolve(unit, suite, EngineConfig(**cfg))
    assert outcome.status == STATUS_PATCH_FOUND


@pytest.mark.parametrize(
    "field, value",
    [
        ("mode", "jGenProg"),
        ("formula", "Ochiai"),
        ("navigation", "best"),
        ("ingredient_scope", "Local"),
        ("population_size", 2.0),
        ("max_generations", "5"),
        ("step_budget", "2000"),
        ("seed", True),
        ("max_patches", None),
        ("max_patches", 0),
        ("fast_validation", 1),
    ],
)
def test_config_rejects_invalid_values(field, value):
    kwargs = {"mode": "jgenprog", field: value}
    with pytest.raises(ValueError, match=field):
        EngineConfig(**kwargs)
