import pytest

from minirepair.minilang import parse
from minirepair.minilang.testsuite import load_suite

from samples import BUGGY_MAX, CORRECT_MAX, MAX_SUITE


@pytest.fixture
def buggy_max():
    return parse(BUGGY_MAX, source_name="max")


@pytest.fixture
def correct_max():
    return parse(CORRECT_MAX, source_name="max")


@pytest.fixture
def max_suite(buggy_max):
    return load_suite(MAX_SUITE, buggy_max)
