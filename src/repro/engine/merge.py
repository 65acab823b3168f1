"""Boolean operators on sorted runs (Section 4.2).

List merging in the style of Jacobson et al.'s table-driven algorithm:
both operands are sorted by reverse-dn key, so `(&)`, `(|)` and `(-)` are
one labelled merge (:func:`repro.engine.common.labeled_merge`) whose
entries are kept or dropped by a table of labels -- linear I/O, and the
output order is preserved for the operators above in the query tree.
"""

from __future__ import annotations

from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter
from .common import labeled_merge

__all__ = ["boolean_merge"]

#: The labels each operator keeps (``label(rl) = {i | rl in Li}``).
_KEEPS = {
    "and": (frozenset({1, 2}),),
    "or": (frozenset({1, 2}), frozenset({1}), frozenset({2})),
    "diff": (frozenset({1}),),
}


def boolean_merge(pager: Pager, op: str, left: Run, right: Run) -> Run:
    """Compute ``left OP right`` on sorted, duplicate-free runs; an entry
    both operands hold is ``left``'s copy."""
    if op not in _KEEPS:
        raise ValueError("unknown boolean operator %r" % op)
    keeps = _KEEPS[op]
    writer = RunWriter(pager)
    for entry, label in labeled_merge((left, right)):
        if label in keeps:
            writer.append(entry)
    return writer.close()
