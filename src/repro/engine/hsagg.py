"""Hierarchical selection, plain and aggregate -- the engine's entry point
for ``p``, ``c``, ``a``, ``d``, ``ac`` and ``dc`` (ComputeHSAgg of
Section 6.4, subsuming ComputeHSPC/HSAD/HSADc as the ``count($2) > 0``
case).

One stack pass (:func:`repro.engine.stackjoin.stack_pass`, linear I/O)
selects each entry of the first operand as its witness state resolves.
Only a filter with entry-set aggregates (``max(count($2))``,
``count($1)``, ...) keeps two phases: the annotated run, then
:func:`repro.engine.selection.select_annotated` (at most two scans).
"""

from __future__ import annotations

from typing import Optional

from ..model.entry import Entry
from ..query.aggregates import AggSelFilter
from ..storage.pager import Pager
from ..storage.runs import Run
from .common import WitnessFold, witness_terms_of
from .selection import select_annotated
from .stackjoin import Labelled, hierarchical_annotate, stack_pass

__all__ = ["hierarchical_select"]


def hierarchical_select(
    pager: Pager,
    op: str,
    stream: Labelled,
    agg_filter: Optional[AggSelFilter] = None,
) -> Run:
    """Evaluate ``(op Q1 Q2 [Q3] [agg_filter])`` over ``stream``, the
    labelled merge of its operands (``labeled_merge`` of their runs, or
    the planned engine's shared scan); returns the selected entries of
    the first operand as a sorted run."""
    terms = witness_terms_of(agg_filter)
    if agg_filter is not None and agg_filter.entry_set_aggregates():
        annotated = hierarchical_annotate(pager, op, stream, terms)
        try:
            return select_annotated(pager, annotated, terms, agg_filter)
        finally:
            annotated.free()
    fold = WitnessFold(terms)
    if agg_filter is None:
        return stack_pass(pager, op, stream, fold, None)
    values, test = fold.values, agg_filter.test_resolved

    def keep(entry: Entry, state) -> Optional[Entry]:
        return entry if test(entry, dict(zip(terms, values(state))), {}) else None

    return stack_pass(pager, op, stream, fold, keep)
