"""Simple aggregate selection ``(g Q AggSel)`` -- Section 6.3.

The no-witness-terms case of the shared selection phase
(:func:`repro.engine.selection.select_annotated`, which Section 6.4's
ComputeHSAgg ends with), so it takes at most two scans of the input run,
as Theorem 6.1 states:

1. when the filter contains entry-set aggregates (``count($$)``,
   ``min(min(a))``, ...), one scan computes them incrementally;
2. one scan tests the filter per entry (entry aggregates like ``min(a)``
   are computed from the entry in place) and writes the survivors.

When the filter has no entry-set aggregate the first scan is skipped and a
single scan suffices.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from ..query.aggregates import AggSelFilter
from ..storage.pager import Pager
from ..storage.runs import Run
from .common import Annotated
from .selection import select_annotated

__all__ = ["simple_agg_select"]


class _Unannotated:
    """An entry run read as ``(entry, ())`` pairs: every scan of it is one
    scan of the run, and nothing is written."""

    __slots__ = ("_run",)

    def __init__(self, run: Run):
        self._run = run

    def __iter__(self) -> Iterator[Annotated]:
        return zip(self._run, repeat(()))


def simple_agg_select(pager: Pager, operand: Run, agg_filter: AggSelFilter) -> Run:
    """Apply a simple aggregate selection filter to a sorted run."""
    if agg_filter.needs_witnesses():
        raise ValueError(
            "simple aggregate selection cannot reference $2: %s" % agg_filter
        )
    return select_annotated(pager, _Unannotated(operand), (), agg_filter)
