import json

import pytest

from minirepair.minilang import parse
from minirepair.minilang.errors import SuiteError
from minirepair.minilang.interpreter import INT_MAX, INT_MIN
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
