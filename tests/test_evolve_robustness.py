"""Any well-typed program with a failing test ends `evolve()` in a verdict:
no candidate the operators make may crash the search or edit its input."""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.engine import EngineConfig, NoFailingTest, UnlocalizableFault, evolve
from minirepair.faultloc import FORMULAS, STRATEGIES
from minirepair.minilang import pretty_print, testsuite
from minirepair.minilang.interpreter import RETURNED, interpret
from minirepair.minilang.nodes import T_BOOL, T_INT
from minirepair.operators import MODES

from randprog import random_unit
from test_compiled_interpreter import random_args

STEP_BUDGET = 300
DEFAULTS = {T_INT: 0, T_BOOL: False}


def flipped(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + [1]


def suite_from_runs(unit, rng, flip_first=True):
    """Two tests per function expecting what the unit returns, except the
    first, whose expected value is flipped so that it fails (unless not
    `flip_first`)."""
    tests = []
    for fn in unit.functions:
        for _ in range(2):
            args = random_args([t for _, t in fn.params], rng)
            result = interpret(unit, fn.name, copy.deepcopy(args), STEP_BUDGET)
            expect = result.value if result.status == RETURNED else DEFAULTS.get(fn.return_type, [])
            if flip_first and not tests:
                expect = flipped(expect)
            frozen = tuple(tuple(a) if isinstance(a, list) else a for a in args)
            tests.append(testsuite.TestCase(f"t{len(tests)}", fn.name, frozen, expect))
    return tests


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_evolve_ends_in_a_verdict_and_leaves_its_input_alone(seed):
    unit = random_unit(seed)
    rng = random.Random(seed)
    suite = suite_from_runs(unit, rng)
    snapshot, text = copy.deepcopy(unit), pretty_print(unit)
    for mode in MODES:
        config = EngineConfig(
            mode=mode,
            population_size=3,
            max_generations=3,
            formula=rng.choice(FORMULAS),
            navigation=rng.choice(STRATEGIES),
            ingredient_scope=rng.choice(("local", "global")),
            step_budget=STEP_BUDGET,
            seed=seed,
            check_lineages=True,
        )
        try:
            evolve(unit, suite, config)
        except (NoFailingTest, UnlocalizableFault):
            pass
        assert unit == snapshot
        assert pretty_print(unit) == text
