import gc

import pytest

from minirepair.minilang import interpreter, parse
from minirepair.minilang.testsuite import load_suite

from samples import BUGGY_MAX, CORRECT_MAX, MAX_SUITE


@pytest.fixture(autouse=True)
def no_cached_hot_code():
    """Each test compiles its hot loops anew: code cached by an earlier test
    would change what a test's builds count and what its `compile()` sees."""
    interpreter._HOT_CODE.clear()


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fails a test that leaves the cyclic collector switched otherwise than
    it found it, as a search that lost its restore would (`engine.evolve`
    pauses the collector), and switches it back for the tests after."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        gc.enable() if enabled else gc.disable()
        pytest.fail(f"the test left the cyclic collector {'disabled' if enabled else 'enabled'}")


@pytest.fixture
def buggy_max():
    return parse(BUGGY_MAX, source_name="max")


@pytest.fixture
def correct_max():
    return parse(CORRECT_MAX, source_name="max")


@pytest.fixture
def max_suite(buggy_max):
    return load_suite(MAX_SUITE, buggy_max)
