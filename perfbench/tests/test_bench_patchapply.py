import difflib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchapply import PatchError, apply_unified_diff

from minirepair.engine import make_diff

MAX = """fn max(a: int, b: int) -> int {
  let m = a;
  if (b < m) {
    m = b;
  }
  return m;
}
"""


def test_applies_the_engines_own_diff():
    fixed = MAX.replace("b < m", "b > m")
    assert apply_unified_diff(MAX, make_diff(MAX, fixed, "max")) == fixed


def test_insertion_and_removal_at_the_edges():
    lines = MAX.splitlines(keepends=True)
    for repaired in ("".join(lines[1:]), "".join(lines[:-1]), "fn x() -> int {\n  return 0;\n}\n\n" + MAX):
        assert apply_unified_diff(MAX, make_diff(MAX, repaired)) == repaired


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["a\n", "b\n", "c\n", "}\n", "  x = 1;\n"]), max_size=30),
    st.lists(st.sampled_from(["a\n", "b\n", "d\n", "}\n", "  x = 2;\n"]), max_size=30),
    st.integers(0, 5),
)
def test_round_trips_any_difflib_diff(old, new, context):
    old_text, new_text = "".join(old), "".join(new)
    diff = "".join(difflib.unified_diff(old, new, "a/p.ml", "b/p.ml", n=context))
    if not diff:
        return
    assert apply_unified_diff(old_text, diff) == new_text


def test_rejects_a_diff_whose_context_does_not_match():
    diff = make_diff(MAX, MAX.replace("b < m", "b > m"))
    with pytest.raises(PatchError):
        apply_unified_diff(MAX.replace("let m = a;", "let m = b;"), diff)


@pytest.mark.parametrize(
    "diff",
    [
        "",
        "--- a/p.ml\n+++ b/p.ml\n",
        "--- a/p.ml\n+++ b/p.ml\n@@ -1,2 +1,2 @@\n fn max(a: int, b: int) -> int {\n",
        "--- a/p.ml\n+++ b/p.ml\n@@ -1 +1 @@\n?fn\n",
        "garbage\n@@ -1 +1 @@\n-x\n+y\n",
        "--- a/p.ml\n+++ b/p.ml\n@@ -90 +90 @@\n-x\n+y\n",
    ],
)
def test_rejects_malformed_diffs(diff):
    with pytest.raises(PatchError):
        apply_unified_diff(MAX, diff)
