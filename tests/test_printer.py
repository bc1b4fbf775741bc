from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.minilang import all_statement_ids, parse, pretty_print

from samples import BUGGY_MAX
from randprog import random_unit


def test_max_round_trip(buggy_max):
    text = pretty_print(buggy_max)
    reparsed = parse(text, source_name="max")
    assert reparsed == buggy_max
    assert all_statement_ids(reparsed) == all_statement_ids(buggy_max)
    assert pretty_print(reparsed) == text


def test_canonical_output_matches_source(buggy_max):
    # BUGGY_MAX is already written in canonical form
    assert pretty_print(buggy_max) == BUGGY_MAX


def test_indentation_tracks_block_depth():
    src = "fn f(n: int) -> int { while (n > 0) { if (n > 1) { n = n - 2; } } return n; }"
    lines = pretty_print(parse(src)).splitlines()
    assert lines[1] == "  while (n > 0) {"
    assert lines[2] == "    if (n > 1) {"
    assert lines[3] == "      n = n - 2;"


def test_empty_else_is_omitted():
    unit = parse("fn f(x: int) -> int { if (x > 0) { x = 1; } else { } return x; }")
    assert "else" not in pretty_print(unit)
    assert unit.functions[0].body[0].else_body is None


def test_else_branch_prints():
    unit = parse("fn f(x: int) -> int { if (x > 0) { x = 1; } else { x = 2; } return x; }")
    out = pretty_print(unit)
    assert "  } else {" in out


def test_needed_parentheses_survive():
    unit = parse("fn f(a: int, b: int, c: int) -> int { return a * (b + c); }")
    assert "a * (b + c)" in pretty_print(unit)


def test_redundant_parentheses_dropped():
    unit = parse("fn f(a: int, b: int, c: int) -> int { return ((a * b)) + (c); }")
    assert "a * b + c" in pretty_print(unit)


def test_left_associative_subtraction_keeps_meaning():
    unit = parse("fn f(a: int, b: int, c: int) -> int { return a - (b - c); }")
    assert "a - (b - c)" in pretty_print(unit)
    unit = parse("fn f(a: int, b: int, c: int) -> int { return (a - b) - c; }")
    assert "a - b - c" in pretty_print(unit)


def test_unary_printing():
    unit = parse("fn f(a: bool, b: bool) -> bool { return !(a && b); }")
    assert "!(a && b)" in pretty_print(unit)
    unit = parse("fn f() -> int { return -1; }")
    assert "return -1;" in pretty_print(unit)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_on_generated_programs(seed):
    unit = random_unit(seed)
    text = pretty_print(unit)
    reparsed = parse(text, source_name="generated")
    assert reparsed == unit
    assert all_statement_ids(reparsed) == all_statement_ids(unit)
    assert pretty_print(reparsed) == text
