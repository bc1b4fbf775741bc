"""The loop cut's in-place comparison against the state comparison it
replaced: `loop_state` below builds each binding's comparable value, and a
check matched when the two states were equal. The comparison must agree
with it on every pair of states, copy nothing when it does not match, and
a loop entry makes no cut before its first check."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.minilang import interpreter, parse
from minirepair.minilang.interpreter import CUT_FIRST_SNAPSHOT, interpret


def loop_state(L: list, live: tuple[int, ...]) -> list:
    """The bindings in `live` as a comparable value: types, contents, sharing."""
    state = []
    first_seen: dict[int, int] = {}
    for position, slot in enumerate(live):
        value = L[slot]
        if type(value) is list:
            owner = first_seen.setdefault(id(value), position)
            state.append((owner, tuple(value), tuple(map(type, value))))
        else:
            state.append((type(value), value))
    return state


def bind(bindings: list, arrays: list[list]) -> list:
    """A slot list: a binding is a scalar, or ("array", j) for `arrays[j]`."""
    return [arrays[b[1]] if type(b) is tuple else b for b in bindings]


def assert_agrees(before, arrays, after, contents, live):
    """Snapshot the state `before` binds, write `contents` into the same
    arrays in place, and compare the state `after` binds with the snapshot."""
    arrays = [list(a) for a in arrays]
    L = bind(before, arrays)
    reference = loop_state(L, live)
    cut = interpreter._Cut(live)
    cut.check(L, CUT_FIRST_SNAPSHOT)
    for array, new in zip(arrays, contents):
        array[:] = new
    L = bind(after, arrays)
    assert cut.matches(L) == (loop_state(L, live) == reference)
    return cut.matches(L)


SHARED = [("array", 0), ("array", 0)]
TWO = [("array", 0), ("array", 1)]

# (before, arrays, after, contents, live, matches)
CASES = [
    ([1, True], [], [1, True], [], (0, 1), True),
    ([True], [], [1], [], (0,), False),
    ([1], [], [True], [], (0,), False),
    ([("array", 0)], [[1, 0]], [("array", 0)], [[True, 0]], (0,), False),
    ([("array", 0)], [[True]], [("array", 0)], [[True]], (0,), True),
    ([("array", 0)], [[0, 1]], [("array", 0)], [[0]], (0,), False),
    ([("array", 0)], [[]], [("array", 0)], [[0]], (0,), False),
    (SHARED, [[2], [2]], TWO, [[2], [2]], (0, 1), False),
    (TWO, [[2], [2]], SHARED, [[2], [2]], (0, 1), False),
    (TWO, [[2], [2]], TWO, [[2], [2]], (1, 0), True),
    ([0, ("array", 0)], [[2]], [("array", 0), 0], [[2]], (0, 1), False),
    ([0, 5], [], [0, 6], [], (0,), True),  # a slot the loop does not see
]


@pytest.mark.parametrize("before, arrays, after, contents, live, matches", CASES)
def test_each_check_of_the_comparison(before, arrays, after, contents, live, matches):
    """Scalar types (`True` against `1`), element types, lengths, sharing
    (one array against two equal ones) and the order of the bindings."""
    assert assert_agrees(before, arrays, after, contents, live) == matches


SCALARS = st.sampled_from([0, 1, 2, True, False])
BINDING = st.one_of(SCALARS, st.integers(0, 2).map(lambda j: ("array", j)))
CONTENTS = st.lists(st.sampled_from([0, 1, 2, True, False]), max_size=3)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_comparison_agrees_with_the_state_it_replaced(data):
    """States drawn as small edits of the snapshot's, so that many match
    in contents and differ, if at all, only in types or sharing."""
    before = data.draw(st.lists(BINDING, min_size=1, max_size=4))
    arrays = data.draw(st.lists(CONTENTS, min_size=3, max_size=3))
    after = [b if data.draw(st.booleans()) else data.draw(BINDING) for b in before]
    contents = [a if data.draw(st.booleans()) else data.draw(CONTENTS) for a in arrays]
    order = data.draw(st.permutations(range(len(before))))
    live = tuple(order[: data.draw(st.integers(1, len(before)))])
    assert_agrees(before, arrays, after, contents, live)


def test_a_check_that_does_not_match_copies_nothing():
    """The snapshot holds a 20,000-element array; each state below differs
    from it in one place, found without copying the array."""
    v = list(range(20_000))
    cut = interpreter._Cut((0, 1, 2))
    cut.check([v, v, 0], CUT_FIRST_SNAPSHOT)
    last = v[:-1] + [-1]
    as_bool = [True if x == 1 else x for x in v]
    states = [[v, v, 1], [last, last, 0], [as_bool, as_bool, 0], [v, v[:], 0]]
    tracemalloc.start()
    try:
        assert not any(cut.matches(L) for L in states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000


def test_a_loop_entry_makes_its_cut_at_its_first_check(monkeypatch):
    made = []
    init = interpreter._Cut.__init__
    monkeypatch.setattr(interpreter._Cut, "__init__", lambda cut, live: made.append(live) or init(cut, live))
    unit = parse("fn f(n: int) -> int { let i = 0; while (i < n) { i = i + 1; } return i; }")
    assert interpret(unit, "f", [CUT_FIRST_SNAPSHOT - 1], 1_000).value == CUT_FIRST_SNAPSHOT - 1
    assert made == []
    assert interpret(unit, "f", [CUT_FIRST_SNAPSHOT], 1_000).value == CUT_FIRST_SNAPSHOT
    assert made == [(0, 1)]
