import dataclasses
import json

import pytest

from minirepair.minilang import interpreter, parse, testsuite
from minirepair.minilang.errors import SuiteError
from minirepair.minilang.interpreter import INT_MAX, INT_MIN, interpret, value_type
from minirepair.minilang.testsuite import load_suite, run_test

from samples import MAX_SUITE


def suite_doc(**test_fields):
    base = {"name": "t", "call": {"fn": "max", "args": [1, 2]}, "expect": 2}
    base.update(test_fields)
    return json.dumps({"tests": [base]})


def test_load_valid_suite(buggy_max):
    suite = load_suite(MAX_SUITE, buggy_max)
    assert [t.name for t in suite] == ["t1", "t2"]
    assert suite[0].fn == "max"
    assert suite[0].args == (3, 5)
    assert suite[0].expect == 5


def test_verdicts(buggy_max, correct_max, max_suite):
    assert [run_test(buggy_max, t, 1000)[0] for t in max_suite] == [False, True]
    assert [run_test(correct_max, t, 1000)[0] for t in max_suite] == [True, True]


def test_unknown_function(buggy_max):
    with pytest.raises(SuiteError, match="no function"):
        load_suite(suite_doc(call={"fn": "nope", "args": []}), buggy_max)


def test_arity_mismatch(buggy_max):
    with pytest.raises(SuiteError, match="takes 2 arguments"):
        load_suite(suite_doc(call={"fn": "max", "args": [1]}), buggy_max)


def test_argument_type_mismatch(buggy_max):
    with pytest.raises(SuiteError, match="must have type int"):
        load_suite(suite_doc(call={"fn": "max", "args": [1, [2]]}), buggy_max)


def test_expect_type_mismatch(buggy_max):
    with pytest.raises(SuiteError, match="expected value"):
        load_suite(suite_doc(expect=True), buggy_max)


def test_bool_is_not_int(buggy_max):
    # JSON true must not satisfy an int parameter even though bool subclasses int
    with pytest.raises(SuiteError):
        load_suite(suite_doc(call={"fn": "max", "args": [True, 2]}), buggy_max)


def test_duplicate_test_names(buggy_max):
    doc = json.dumps(
        {
            "tests": [
                {"name": "t", "call": {"fn": "max", "args": [1, 2]}, "expect": 2},
                {"name": "t", "call": {"fn": "max", "args": [2, 1]}, "expect": 2},
            ]
        }
    )
    with pytest.raises(SuiteError, match="duplicate"):
        load_suite(doc, buggy_max)


def test_malformed_json(buggy_max):
    with pytest.raises(SuiteError, match="invalid JSON"):
        load_suite("{not json", buggy_max)
    with pytest.raises(SuiteError, match="tests"):
        load_suite("[]", buggy_max)


def test_array_arguments_round_trip():
    unit = parse("fn first(v: int[]) -> int { return v[0]; }")
    suite = load_suite(
        json.dumps(
            {"tests": [{"name": "t", "call": {"fn": "first", "args": [[7, 8]]}, "expect": 7}]}
        ),
        unit,
    )
    passed, result = run_test(unit, suite[0], 100)
    assert passed and result.value == 7


def test_missing_expect(buggy_max):
    doc = json.dumps({"tests": [{"name": "t", "call": {"fn": "max", "args": [1, 2]}}]})
    with pytest.raises(SuiteError, match="expected value"):
        load_suite(doc, buggy_max)


def test_args_must_be_an_array(buggy_max):
    with pytest.raises(SuiteError, match="args must be an array"):
        load_suite(suite_doc(call={"fn": "max", "args": 5}), buggy_max)


def test_over_deep_json_is_a_suite_error(buggy_max):
    deep = '{"tests": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(SuiteError, match="nested too deeply"):
        load_suite(deep, buggy_max)


ARRAYS = parse("fn f(v: int[], n: int) -> int[] { return v; }\nfn g(n: int) -> int { return n; }")


@pytest.mark.parametrize(
    "literal",
    [str(INT_MAX + 1), str(INT_MIN - 1), "99999999999999999999", "-1" + "0" * 5000],
    ids=["max-plus-1", "min-minus-1", "20-digits", "5001-digits"],
)
@pytest.mark.parametrize(
    "call, expect",
    [
        ({"fn": "g", "args": ["X"]}, 0),
        ({"fn": "f", "args": [[1, "X"], 0]}, []),
        ({"fn": "g", "args": [0]}, "X"),
        ({"fn": "f", "args": [[], 0]}, [0, "X"]),
    ],
    ids=["argument", "argument-element", "expected", "expected-element"],
)
def test_out_of_range_integers_are_rejected(call, expect, literal):
    doc = json.dumps({"tests": [{"name": "t", "call": call, "expect": expect}]})
    doc = doc.replace('"X"', literal)
    with pytest.raises(SuiteError, match=f"integer {literal[:24]} is outside the signed 64-bit"):
        load_suite(doc, ARRAYS)


def test_int64_bounds_are_accepted():
    call = {"fn": "f", "args": [[INT_MIN, INT_MAX], INT_MAX]}
    doc = json.dumps({"tests": [{"name": "t", "call": call, "expect": [INT_MIN]}]})
    assert load_suite(doc, ARRAYS)[0].args == ((INT_MIN, INT_MAX), INT_MAX)


TAKES = parse(
    """\
fn takes_int(x: int) -> int { return 0; }
fn takes_bool(x: bool) -> int { return 0; }
fn takes_array(x: int[]) -> int { return 0; }
"""
)
PARAMETER_OF = {"int": "takes_int", "bool": "takes_bool", "int[]": "takes_array"}


@pytest.mark.parametrize(
    "value, kind",
    [
        (0, "int"),
        (INT_MAX, "int"),
        (INT_MAX + 1, None),
        (True, "bool"),
        ([1, True], None),
        ((1, 2), "int[]"),
        ([], "int[]"),
        ([2**63], None),
        (1.0, None),
        (None, None),
    ],
)
def test_a_suite_and_interpret_accept_the_same_arguments(value, kind):
    """`load_suite` and `interpret` apply one rule, `value_type`: each
    value is accepted for the parameter of its type only, or for none."""
    assert value_type(value) == kind
    for param, fn in PARAMETER_OF.items():
        call = {"fn": fn, "args": [value]}
        try:
            load_suite(json.dumps({"tests": [{"name": "t", "call": call, "expect": 0}]}), TAKES)
            in_suite = True
        except SuiteError:
            in_suite = False
        try:
            interpret(TAKES, fn, [value], 100)
            at_entry = True
        except ValueError:
            at_entry = False
        assert in_suite == at_entry == (param == kind), fn


def test_run_test_checks_a_hand_built_test_as_interpret_does(buggy_max):
    """A `TestCase` that `load_suite` did not make has its arguments checked
    at entry: a bool for an int raises interpret's own ValueError."""
    test = testsuite.TestCase("t", "max", (True, 2), 2)
    assert test.kinds is None
    with pytest.raises(ValueError) as direct:
        interpret(buggy_max, "max", test.args, 100)
    with pytest.raises(ValueError) as through_run_test:
        run_test(buggy_max, test, 100)
    assert str(through_run_test.value) == str(direct.value) == "'max': argument 'a' must have type int"


def test_a_loaded_test_is_not_checked_again(buggy_max, max_suite, monkeypatch):
    """`run_test` hands `interpret` the types `load_suite` checked, so no
    run of a loaded test calls `value_type`; a `replace` copy, whose
    arguments `load_suite` never saw, is checked again."""
    calls = []
    real = interpreter.value_type
    monkeypatch.setattr(interpreter, "value_type", lambda v: calls.append(v) or real(v))
    assert [t.kinds for t in max_suite] == [("int", "int"), ("int", "int")]
    assert [run_test(buggy_max, t, 1000)[0] for t in max_suite] == [False, True]
    assert calls == []
    copy = dataclasses.replace(max_suite[0], args=(False, 5))
    assert copy.kinds is None
    with pytest.raises(ValueError, match="argument 'a' must have type int"):
        run_test(buggy_max, copy, 1000)
    assert calls == [False, 5]


def test_loaded_array_arguments_are_frozen():
    """An argument `load_suite` checked cannot change after its check."""
    unit = parse("fn first(v: int[]) -> int { return v[0]; }")
    doc = {"tests": [{"name": "t", "call": {"fn": "first", "args": [[7]]}, "expect": 7}]}
    (test,) = load_suite(json.dumps(doc), unit)
    assert type(test.args) is tuple and type(test.args[0]) is tuple
    assert test.kinds == ("int[]",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        test.args = ([True],)
