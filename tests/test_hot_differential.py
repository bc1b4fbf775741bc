"""The closure form's differential tests against the tree-walking
reference, run again with every loop hot: the threshold lowered to 1,
where every loop entry switches after its first header visit, and to 16,
the first snapshot visit of the loop cut. The random units of
`random_hot_unit`, whose loops are all in the hot language, run too."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_compiled_interpreter
from minirepair.minilang import interpreter
from minirepair.minilang.interpreter import interpret
from randprog import random_hot_unit, random_unit
from test_compiled_interpreter import observable, random_args, reference

# Collected again in this module, where the fixture below runs each of
# them at both thresholds.
from test_compiled_interpreter import (  # noqa: F401
    test_accumulator_loop_is_not_cut,
    test_equal_values_with_other_sharing_are_not_a_repeat,
    test_loop_inside_recursive_call,
    test_loop_whose_state_repeats_is_cut,
    test_nested_loops,
    test_runs_differing_only_in_sharing,
)
from test_closures import (  # noqa: F401
    test_a_let_reads_the_outer_binding_of_its_own_name,
    test_constant_divisors_match_reference,
    test_coverage_of_a_loop_that_calls_a_looping_function,
    test_equality_against_a_constant,
    test_equality_never_meets_an_argument_of_the_wrong_type,
    test_fused_stores_trap_where_the_reference_does,
    test_let_in_a_nested_block_next_to_an_outer_binding,
    test_literal_divisors_of_any_sign_match_reference,
    test_loop_cut_fires_at_the_same_step_at_every_budget,
    test_operands_that_may_trap_keep_their_order,
    test_ordered_comparisons_with_pure_operands_on_either_side,
    test_stores_reach_the_overflow_they_are_meant_to,
    test_variable_divisors_match_reference,
)


@pytest.fixture(autouse=True, params=(1, 16), ids=lambda t: f"hot_at_{t}")
def threshold(request, monkeypatch):
    monkeypatch.setattr(interpreter, "HOT_LOOP_VISITS", request.param)


def test_random_programs_match_reference():
    """The seeds and budgets of `test_compiled_matches_reference`."""
    test_compiled_interpreter.test_compiled_matches_reference()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_hot_programs_match_reference(seed):
    """The budgets of `test_compiled_matches_reference`."""
    unit = random_hot_unit(seed)
    rng = random.Random(seed)
    for fn in unit.functions:
        args = random_args([t for _, t in fn.params], rng)
        for budget in (1, 7, 60, 500):
            assert observable(interpret(unit, fn.name, args, budget)) == observable(reference(unit, fn.name, args, budget))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_programs_match_reference_at_a_drawn_budget(seed):
    """One run per function at a budget drawn between 1 and the steps the
    reference takes at 2,000, so that the hot form hands its entry back at
    varied offsets of an iteration."""
    assert_matches_at_a_drawn_budget(random_unit(seed), seed)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_hot_programs_match_reference_at_a_drawn_budget(seed):
    assert_matches_at_a_drawn_budget(random_hot_unit(seed), seed)


def assert_matches_at_a_drawn_budget(unit, seed):
    rng = random.Random(seed)
    for fn in unit.functions:
        args = random_args([t for _, t in fn.params], rng)
        budget = rng.randint(1, reference(unit, fn.name, args, 2_000).steps_used)
        assert observable(interpret(unit, fn.name, args, budget)) == observable(reference(unit, fn.name, args, budget))
