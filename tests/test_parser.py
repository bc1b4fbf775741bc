import pytest

from minirepair.minilang import (
    CheckError,
    ParseError,
    StatementId,
    all_statement_ids,
    interpret,
    iter_statements,
    parse,
)
from minirepair.minilang.nodes import AssignStmt, Binary, IfStmt, LetStmt, ReturnStmt

from samples import BUGGY_MAX


def test_max_statement_ids(buggy_max):
    assert len(buggy_max.functions) == 1
    assert all_statement_ids(buggy_max) == [StatementId("max", i) for i in range(4)]


def test_max_shape(buggy_max):
    body = buggy_max.functions[0].body
    assert isinstance(body[0], LetStmt)
    assert isinstance(body[1], IfStmt)
    assert isinstance(body[1].then_body[0], AssignStmt)
    assert isinstance(body[2], ReturnStmt)
    cond = body[1].cond
    assert isinstance(cond, Binary) and cond.op == "<"


def test_missing_return_is_an_error():
    with pytest.raises(CheckError, match="missing return"):
        parse("fn f() -> int { }")


def test_missing_return_on_one_branch():
    with pytest.raises(CheckError, match="missing return"):
        parse("fn f(x: int) -> int { if (x > 0) { return 1; } }")


def test_return_via_both_branches_is_fine():
    parse("fn f(x: int) -> int { if (x > 0) { return 1; } else { return 0; } }")


def test_type_error_has_location():
    with pytest.raises(CheckError) as info:
        parse("fn f(x: int) -> bool { return x + true; }")
    assert info.value.line == 1
    assert info.value.col is not None


def test_syntax_error_has_location():
    with pytest.raises(ParseError) as info:
        parse("fn f() -> int {\n  return 1\n}")
    assert info.value.line == 3


def test_duplicate_function():
    with pytest.raises(CheckError, match="duplicate function"):
        parse("fn f() -> int { return 1; } fn f() -> int { return 2; }")


def test_duplicate_parameter():
    with pytest.raises(CheckError, match="duplicate parameter"):
        parse("fn f(a: int, a: int) -> int { return a; }")


def test_redeclaration_rejected():
    with pytest.raises(CheckError, match="redeclaration"):
        parse("fn f() -> int { let x = 1; let x = 2; return x; }")
    with pytest.raises(CheckError, match="redeclaration"):
        parse("fn f(x: int) -> int { if (x > 0) { let x = 2; } return x; }")


def test_unbound_variable():
    with pytest.raises(CheckError, match="unbound"):
        parse("fn f() -> int { return y; }")


def test_block_scoping_of_lets():
    with pytest.raises(CheckError, match="unbound"):
        parse("fn f() -> int { if (true) { let x = 1; } return x; }")


def test_assignment_type_mismatch():
    with pytest.raises(CheckError, match="assign"):
        parse("fn f(x: int) -> int { x = true; return x; }")


def test_call_checking():
    src = "fn g(a: int) -> int { return a; } fn f() -> int { return g(true); }"
    with pytest.raises(CheckError, match="argument type"):
        parse(src)
    with pytest.raises(CheckError, match="takes 1 arguments"):
        parse("fn g(a: int) -> int { return a; } fn f() -> int { return g(1, 2); }")
    with pytest.raises(CheckError, match="unknown function"):
        parse("fn f() -> int { return g(1); }")


def test_recursion_is_legal():
    parse("fn f(n: int) -> int { if (n <= 0) { return 0; } return f(n - 1); }")


def test_precedence():
    unit = parse("fn f(a: bool, b: bool, c: bool) -> bool { return a || b && c; }")
    root = unit.functions[0].body[0].value
    assert root.op == "||"
    assert root.rhs.op == "&&"
    unit = parse("fn f() -> int { return 1 + 2 * 3; }")
    root = unit.functions[0].body[0].value
    assert root.op == "+" and root.rhs.op == "*"
    unit = parse("fn f(x: int) -> bool { return x + 1 < x * 2; }")
    root = unit.functions[0].body[0].value
    assert root.op == "<" and root.lhs.op == "+" and root.rhs.op == "*"


def test_parenthesized_grouping():
    unit = parse("fn f(a: int, b: int) -> int { return (a + b) * 2; }")
    root = unit.functions[0].body[0].value
    assert root.op == "*" and root.lhs.op == "+"


def test_index_assignment_and_expression_statement():
    unit = parse(
        "fn f(v: int[]) -> int { v[0] = 1; v[0]; f(v); return v[0]; }"
    )
    names = [type(s).__name__ for s in unit.functions[0].body]
    assert names == ["IndexAssignStmt", "ExprStmt", "ExprStmt", "ReturnStmt"]


def test_invalid_assignment_target():
    with pytest.raises(ParseError, match="assignment target"):
        parse("fn f() -> int { 1 + 2 = 3; return 0; }")


def test_integer_literal_range():
    parse("fn f() -> int { return 9223372036854775807; }")
    with pytest.raises(ParseError, match="out of range"):
        parse("fn f() -> int { return 9223372036854775808; }")


@pytest.mark.parametrize(
    "literal, message",
    [
        ("\u00b2", "unexpected character"),
        ("1\u00b2", "unexpected character"),
        ("\u0663", "unexpected character"),
        ("9" * 5_000, "out of range"),
    ],
    ids=["superscript-two", "one-superscript-two", "arabic-indic-three", "5000-digits"],
)
def test_an_integer_literal_is_ascii_digits_in_range(literal, message):
    """Only `0`-`9` make a literal, and no literal, however long, escapes
    `parse` as anything but a ParseError."""
    with pytest.raises(ParseError, match=message):
        parse(f"fn f() -> int {{ return {literal}; }}")


def test_leading_zeros_do_not_count_toward_the_range():
    unit = parse("fn f() -> int { return " + "0" * 5_000 + "1; }")
    assert interpret(unit, "f", [], 10).value == 1


def test_array_literal_and_len():
    unit = parse("fn f() -> int { let v = [1, 2, 3]; let e = []; return len(v) + len(e); }")
    assert len(unit.functions[0].body) == 3


def test_nested_ids_are_preorder():
    src = """\
fn f(n: int) -> int {
  let t = 0;
  while (n > 0) {
    if (n % 2 == 0) {
      t = t + 1;
    }
    n = n - 1;
  }
  return t;
}
"""
    unit = parse(src)
    by_id = {sid.index: type(stmt).__name__ for sid, stmt in iter_statements(unit)}
    assert by_id == {
        0: "LetStmt",
        1: "WhileStmt",
        2: "IfStmt",
        3: "AssignStmt",
        4: "AssignStmt",
        5: "ReturnStmt",
    }


def test_equality_needs_same_types():
    with pytest.raises(CheckError, match="same-typed"):
        parse("fn f(x: int) -> bool { return x == true; }")
    parse("fn f(a: int[], b: int[]) -> bool { return a == b; }")


def test_stray_token_after_functions():
    with pytest.raises(ParseError):
        parse(BUGGY_MAX + "\nxyz")


@pytest.mark.parametrize(
    "body",
    [
        "return " + "(" * 400 + "1" + ")" * 400 + ";",
        "return " + "-" * 400 + "1;",
        "return " + " + ".join(["1"] * 3000) + ";",
        "if (true) { " * 400 + "} " * 400 + "return 1;",
    ],
    ids=["parentheses", "unary", "operator-chain", "blocks"],
)
def test_over_deep_nesting_is_a_parse_error(body):
    with pytest.raises(ParseError, match="nesting deeper than 64 levels"):
        parse("fn f() -> int { " + body + " }")


def test_nesting_below_the_limit_parses():
    unit = parse("fn f() -> int { return " + "(" * 60 + "1" + ")" * 60 + " + " + " + ".join(["1"] * 60) + "; }")
    assert interpret(unit, "f", [], 10).value == 61
