"""Path-copied children against the full-clone child maker they replaced
(`reference_children`). Over random lineages in every mode, each child
and every other child of its parent equals, and prints as, the child made
from a full copy of the edited function; each skip is the reference's
skip; the parent prints and compares as before; and a child shares with
its parent every statement off the point's path. Positional ids are the
pre-order numbers that `normalize` once stored on every statement."""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.minilang import SourceUnit, parse, path_of, pretty_print
from minirepair.minilang.interpreter import _code_of
from minirepair.minilang.nodes import iter_function_paths, iter_statement_paths
from minirepair.operators import MODES, SCOPES, PatchSkip, apply_patch_op

from randprog import random_lineage, random_unit
from reference_children import apply_reference
from reference_interpreter import statement_positions
from samples import corpus_case_names, load_corpus_case
from test_cow_variants import binding_envs, every_op, merged_corpus_unit


def assert_positional_ids(unit):
    """Ids, paths, the checker's table and the compiled statement numbers
    all follow the reference's pre-order numbering."""
    expected = [(sid, path, id(stmt)) for sid, path, stmt in statement_positions(unit)]
    assert [(sid, path, id(stmt)) for sid, path, stmt in iter_statement_paths(unit)] == expected
    assert list(binding_envs(unit)) == [sid for sid, _, _ in expected]
    for sid, path, _ in expected:
        assert path_of(unit, sid) == path
    for fn in unit.functions:
        alone = SourceUnit([fn])
        assert _code_of(fn).sids == [sid for sid, _, _ in statement_positions(alone)]


def made_by(make, parent, op, seed):
    """(skip class, child, concrete op) of making `op`'s child with `make`."""
    try:
        child, concrete = make(parent, op, random.Random(seed))
    except PatchSkip as skip:
        return type(skip), None, None
    return None, child, concrete


def assert_shares_all_but_the_path(parent, op, child):
    """The child keeps every statement of the parent's edited function
    that is neither on the point's path nor removed with the point, as the
    same object; and its fresh statements are the compound statements on
    the path and what the edit wrote at the point: a whole ingredient for
    an insert or a replace, the point statement alone otherwise."""
    name, point = op.point.statement.function, op.point.path
    for old, new in zip(parent.functions, child.functions):
        assert (new is old) == (old.name != name)
    before = {id(stmt): path for _, path, stmt in iter_function_paths(parent.function(name))}
    after = {id(stmt): path for _, path, stmt in iter_function_paths(child.function(name))}
    ancestors = {point[:k] for k in range(1, len(point))}
    replaced = op.kind in ("Remove", "Replace")
    for key, path in before.items():
        under = path[: len(point)] == point
        if not (path in ancestors or path == point or (replaced and under)):
            assert key in after, path
    inserted = op.kind in ("InsertBefore", "Replace")
    for key, path in after.items():
        if key not in before:
            under = path[: len(point)] == point
            assert path in ancestors or path == point or (inserted and under), path


def assert_matches_reference(parent, op, seed):
    """Make `op`'s child both ways and compare them; returns the
    path-copied child, or None for a skip."""
    skip, child, concrete = made_by(apply_patch_op, parent, op, seed)
    ref_skip, ref_child, ref_concrete = made_by(apply_reference, parent, op, seed)
    assert skip is ref_skip
    if child is None:
        return None
    assert child == ref_child
    assert pretty_print(child) == pretty_print(ref_child)
    assert concrete.payload == ref_concrete.payload  # the same draws
    assert_shares_all_but_the_path(parent, op, child)
    assert_positional_ids(child)
    return child


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_path_copied_children_equal_full_clone_children_on_random_lineages(seed):
    """Each lineage child, and up to 25 other children of its parent drawn
    from every op of the mode at every point."""
    rng = random.Random(seed)
    for mode in MODES:
        for parent, op, child in random_lineage(seed, mode):
            text, snapshot = pretty_print(parent), copy.deepcopy(parent)
            assert assert_matches_reference(parent, op, seed) == child
            others = list(every_op(parent, mode, rng.choice(SCOPES)))
            for k, other in enumerate(rng.sample(others, min(25, len(others)))):
                assert_matches_reference(parent, other, seed + k)
            assert parent == snapshot and pretty_print(parent) == text


def parsed_units():
    units = [load_corpus_case(name)[0] for name in corpus_case_names()]
    units.append(merged_corpus_unit())
    units += [parse(pretty_print(random_unit(seed))) for seed in range(200)]
    return units


def test_positional_ids_equal_the_ids_normalize_assigned_on_parsed_units():
    for unit in parsed_units():
        assert_positional_ids(unit)
