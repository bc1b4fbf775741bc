"""JSON test suites: loading, validation against a unit, and execution.

Suite files look like:

    {"tests": [{"name": "t1", "call": {"fn": "max", "args": [3, 5]}, "expect": 5}]}

Argument and expected values are JSON integers, booleans, or integer
arrays; every integer must fit the interpreter's signed 64-bit range.
Every test is checked against the program at load time: the called
function must exist with matching arity and argument types, and the
expected value must match its return type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from minirepair.minilang.errors import SuiteError
from minirepair.minilang.interpreter import ExecutionResult, RETURNED, Value, interpret, values_equal
from minirepair.minilang.interpreter import INT_MAX, INT_MIN
from minirepair.minilang.nodes import SourceUnit, T_BOOL, T_INT, T_INT_ARRAY


@dataclass(frozen=True)
class TestCase:
    name: str
    fn: str
    args: tuple
    expect: Value


def _value_type(value) -> str | None:
    if isinstance(value, bool):
        return T_BOOL
    if isinstance(value, int):
        return T_INT
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        return T_INT_ARRAY
    return None


def _int64(literal: str) -> int:
    """A JSON integer literal; at most 20 characters fit, whatever their value."""
    if len(literal) > 20 or not INT_MIN <= int(literal) <= INT_MAX:
        raise SuiteError(f"integer {literal[:24]} is outside the signed 64-bit range")
    return int(literal)


def load_suite(text: str, unit: SourceUnit) -> list[TestCase]:
    """Parse a suite document and validate it against `unit`."""
    try:
        doc = json.loads(text, parse_int=_int64)
    except json.JSONDecodeError as exc:
        raise SuiteError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SuiteError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("tests"), list):
        raise SuiteError('suite document must be an object with a "tests" array')
    tests: list[TestCase] = []
    seen = set()
    for i, entry in enumerate(doc["tests"]):
        where = f"tests[{i}]"
        if not isinstance(entry, dict):
            raise SuiteError(f"{where}: not an object")
        name = entry.get("name")
        call = entry.get("call")
        if not isinstance(name, str) or not name:
            raise SuiteError(f"{where}: missing test name")
        if name in seen:
            raise SuiteError(f"{where}: duplicate test name {name!r}")
        seen.add(name)
        if not isinstance(call, dict) or "fn" not in call or "args" not in call:
            raise SuiteError(f"{where}: call must provide fn and args")
        if "expect" not in entry:
            raise SuiteError(f"{where}: missing expected value")
        fn = unit.function(call["fn"])
        if fn is None:
            raise SuiteError(f"{where}: no function named {call['fn']!r}")
        args = call["args"]
        if not isinstance(args, list):
            raise SuiteError(f"{where}: args must be an array")
        if len(args) != len(fn.params):
            raise SuiteError(
                f"{where}: {fn.name!r} takes {len(fn.params)} arguments, got {len(args)}"
            )
        for arg, (pname, ptype) in zip(args, fn.params):
            if _value_type(arg) != ptype:
                raise SuiteError(f"{where}: argument {pname!r} must have type {ptype}")
        if _value_type(entry["expect"]) != fn.return_type:
            raise SuiteError(f"{where}: expected value must have type {fn.return_type}")
        args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
        expect = entry["expect"]
        expect = list(expect) if isinstance(expect, list) else expect
        tests.append(TestCase(name, fn.name, args, expect))
    return tests


def run_test(unit: SourceUnit, test: TestCase, step_budget: int) -> tuple[bool, ExecutionResult]:
    """Execute one test; passes only when the call returns the expected value."""
    args = [list(a) if isinstance(a, tuple) else a for a in test.args]
    result = interpret(unit, test.fn, args, step_budget)
    passed = result.status == RETURNED and values_equal(result.value, test.expect)
    return passed, result
