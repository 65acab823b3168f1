"""Boolean operators on sorted runs (Section 4.2).

List merging in the style of Jacobson et al.'s table-driven algorithm:
both operands are sorted by reverse-dn key, so `(&)`, `(|)` and `(-)` are
one labelled stream whose entries are kept or dropped by a table of
labels -- linear I/O, and the output order is preserved for the operators
above in the query tree.  The stream is the labelled merge of the two
operand runs (:func:`repro.engine.common.labeled_merge`) or, when a
planned engine reads both leaves of one base together, their one shared
scan (:func:`repro.engine.atomic.shared_scan`); a label is the entry's
membership mask, bit ``i - 1`` for operand ``i``.
"""

from __future__ import annotations

from itertools import compress, tee
from operator import itemgetter

from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter
from .common import Labelled, labeled_merge

__all__ = ["boolean_merge"]

#: Whether each operator keeps an entry, indexed by its label
#: (``label(rl) = {i | rl in Li}`` as a mask: 1 = {1}, 2 = {2}, 3 = {1, 2}).
_KEEPS = {
    "and": (False, False, False, True),
    "or": (False, True, True, True),
    "diff": (False, True, False, False),
}

_ENTRY, _LABEL = itemgetter(0), itemgetter(1)


def boolean_merge(pager: Pager, op: str, *operands) -> Run:
    """Compute ``left OP right`` over one labelled stream of the two
    operands -- or over the two sorted, duplicate-free runs themselves,
    read through their labelled merge.  An entry both operands hold is
    ``left``'s copy.  If the stream raises (a shared scan cut short), the
    pages written so far are released."""
    if op not in _KEEPS:
        raise ValueError("unknown boolean operator %r" % op)
    stream: Labelled = operands[0] if len(operands) == 1 else labeled_merge(operands)
    # The label table applied at C level: no Python frame per entry.
    entries, labels = tee(stream)
    kept = compress(map(_ENTRY, entries), map(_KEEPS[op].__getitem__, map(_LABEL, labels)))
    writer = RunWriter(pager)
    try:
        writer.extend(kept)
    except BaseException:
        writer.close().free()
        raise
    return writer.close()
