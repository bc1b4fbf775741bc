"""The child maker that path copying replaced, kept as the reference for
differential tests.

`apply_reference` copies the whole edited function (`clone`), puts what
the operation kind's family edit writes in place of the point statement
of the copy, then normalizes the unit and checks the nesting and the
types of the whole function, as every child was made before statements
were shared between variants and before any op was checked ahead of its
copy. The binding environment comes from the reference harvester's own
inference. The family edits themselves are the operators' own, and so is
jgenprog's scope check within them: what this reference checks is the
copying, the canonical form and the checks around them.
"""

from __future__ import annotations

from minirepair import operators
from minirepair.minilang import SourceUnit, normalize, resolve_container
from minirepair.minilang.checker import check_function, signatures
from minirepair.minilang.errors import MiniLangError
from minirepair.minilang.nodes import clone
from minirepair.minilang.parser import check_nesting
from minirepair.operators import NotApplicable, PatchOp, StalePoint, TypeCheckFailed

from reference_harvest import binding_env_reference


def apply_reference(parent: SourceUnit, op: PatchOp, rng=None) -> tuple[SourceUnit, PatchOp]:
    """`apply_patch_op` by a full copy of the edited function."""
    edit = operators._EDITS.get(op.kind)
    if edit is None:
        raise NotApplicable(f"unknown operation kind {op.kind!r}")
    name, path = op.point.statement.function, op.point.path
    if resolve_container(parent, name, path) is None:
        raise StalePoint(f"point {op.point.statement} does not resolve")
    env = binding_env_reference(parent, name, path)
    edited = parent.function(name)
    child = SourceUnit(
        [clone(fn) if fn is edited else fn for fn in parent.functions], parent.source_name
    )
    block, index = resolve_container(child, name, path)
    payload = dict(op.payload)
    written = edit(op.kind, block[index], payload, env, rng, parent)
    block[index : index + 1] = [clone(stmt) for stmt in written]
    normalize(child)
    fn = child.function(name)
    try:
        check_nesting(fn.body)
        check_function(fn, signatures(child))
    except MiniLangError as exc:
        raise TypeCheckFailed(str(exc)) from exc
    return child, PatchOp(op.kind, op.point, payload, op.generation)
