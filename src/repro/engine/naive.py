"""Naive quadratic baselines.

Sections 5.3 and 7.2 both open by dismissing "the straightforward way" --
testing each entry of the first operand against every entry of the second
to find witnesses -- as quadratic.  These baselines implement exactly that
strategy *in the same I/O model* (the inner operand is re-scanned from the
device for every outer entry), so the benchmarks can exhibit the
linear-vs-quadratic separation the paper claims.
"""

from __future__ import annotations

from typing import Optional

from ..model.dn import DN, DNSyntaxError
from ..query.aggregates import AggSelFilter
from ..query.semantics import witness_set
from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter
from .common import WitnessFold, witness_terms_of
from .selection import select_annotated

__all__ = ["naive_hierarchical_select", "naive_embedded_ref_select"]


def naive_hierarchical_select(
    pager: Pager,
    op: str,
    first: Run,
    second: Run,
    third: Optional[Run] = None,
    agg_filter: Optional[AggSelFilter] = None,
) -> Run:
    """Nested-loop evaluation of a hierarchical operator: for every entry
    of ``first``, re-scan ``second`` (and ``third``) looking for witnesses."""
    terms = witness_terms_of(agg_filter)
    fold = WitnessFold(terms)
    writer = RunWriter(pager)
    for entry in first:
        witnesses_in_second = list(second)  # full re-scan, counted as I/O
        blockers = list(third) if third is not None else None
        state = fold.zero
        for witness in witness_set(op, entry, witnesses_in_second, blockers):
            state = fold.add(state, witness)
        writer.append((entry, fold.values(state)))
    annotated = writer.close()
    try:
        return select_annotated(pager, annotated, terms, agg_filter)
    finally:
        annotated.free()


def naive_embedded_ref_select(
    pager: Pager,
    op: str,
    first: Run,
    second: Run,
    attribute: str,
    agg_filter: Optional[AggSelFilter] = None,
) -> Run:
    """Nested-loop evaluation of ``vd``/``dv``."""
    if op not in ("vd", "dv"):
        raise ValueError("unknown embedded-reference operator %r" % op)
    terms = witness_terms_of(agg_filter)
    fold = WitnessFold(terms)
    writer = RunWriter(pager)
    for entry in first:
        state = fold.zero
        entry_refs = {_key_of(v) for v in entry.values(attribute)}
        for witness in second:  # full re-scan per outer entry
            if op == "vd":
                if witness.dn.key() in entry_refs:
                    state = fold.add(state, witness)
            else:
                witness_refs = {_key_of(v) for v in witness.values(attribute)}
                if entry.dn.key() in witness_refs:
                    state = fold.add(state, witness)
        writer.append((entry, fold.values(state)))
    annotated = writer.close()
    try:
        return select_annotated(pager, annotated, terms, agg_filter)
    finally:
        annotated.free()


def _key_of(value):
    if isinstance(value, DN):
        return value.key()
    if isinstance(value, str):
        try:
            return DN.parse(value).key()
        except DNSyntaxError:
            # Only a value that genuinely is not a dn is "no reference";
            # anything else propagates instead of vanishing.
            return None
    return None
