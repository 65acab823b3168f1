"""The selection phase shared by every aggregate-capable operator.

The stack pass (and the embedded-reference pass) produce a run of
``(entry, resolved-term-values)`` pairs in sorted order; simple aggregate
selection reads its operand as such pairs with no terms.  Selection then
takes at most two scans:

1. if the aggregate filter uses entry-set aggregates (``max(count($2))``,
   ``count($1)``, ...), one scan folds them -- the incremental computation
   of Ross et al. that Section 6.3 cites;
2. one scan tests the filter per entry and writes the survivors.

For the plain L1 operators the filter is ``count($2) > 0``
(Section 6.2's closing remark) and phase 1 is skipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..query.aggregates import (
    AggSelFilter,
    AggState,
    EntryAggregate,
    EntrySetAggregate,
    WITNESS_COUNT_POSITIVE,
)
from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter
from .common import Annotated

__all__ = ["select_annotated"]


def select_annotated(
    pager: Pager,
    annotated: Iterable[Annotated],
    terms: Sequence[EntryAggregate],
    agg_filter: Optional[AggSelFilter],
) -> Run:
    """Apply ``agg_filter`` (default: ``count($2) > 0``) to an annotated
    run -- any re-iterable of annotated pairs, each iteration one scan;
    return the selected entries as a sorted run."""
    if agg_filter is None:
        agg_filter = WITNESS_COUNT_POSITIVE
    term_index = {term: position for position, term in enumerate(terms)}

    set_aggs = agg_filter.entry_set_aggregates()
    set_values: Dict[int, Optional[float]] = {}
    if set_aggs:
        set_values = _fold_entry_set_aggregates(annotated, set_aggs, term_index)

    writer = RunWriter(pager)
    for entry, results in annotated:
        resolved = {term: results[position] for term, position in term_index.items()}
        if agg_filter.test_resolved(entry, resolved, set_values):
            writer.append(entry)
    return writer.close()


def _fold_entry_set_aggregates(
    annotated: Iterable[Annotated],
    set_aggs: List[EntrySetAggregate],
    term_index: Dict[EntryAggregate, int],
) -> Dict[int, Optional[float]]:
    """One scan computing every entry-set aggregate incrementally."""
    states: Dict[int, AggState] = {}
    counts: Dict[int, int] = {}
    for esa in set_aggs:
        if esa.inner is None:
            counts[id(esa)] = 0
        else:
            states[id(esa)] = AggState(esa.func)
    for entry, results in annotated:
        for esa in set_aggs:
            if esa.inner is None:
                counts[id(esa)] += 1
                continue
            inner = esa.inner
            if inner.needs_witnesses():
                value = results[term_index[inner]]
            else:
                value = inner.evaluate(entry, None)
            if value is not None:
                states[id(esa)].add(value)
    values: Dict[int, Optional[float]] = {}
    for esa in set_aggs:
        if esa.inner is None:
            values[id(esa)] = counts[id(esa)]
        else:
            values[id(esa)] = states[id(esa)].result()
    return values
