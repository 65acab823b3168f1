"""Embedded-reference operators ``vd`` / ``dv`` -- ComputeERAgg (Figure 3,
Section 7.2), generalised to arbitrary aggregate selection terms.

The shape follows the paper's sort-merge strategy:

``dv (L1, L2, a)`` -- witnesses of ``r1`` are the L2 entries whose
attribute ``a`` embeds ``dn(r1)``:

1. scan L2, exploding each dn-valued ``a`` into a pair
   ``(embedded-dn-key, witness-entry)`` (the list ``LP``);
2. external-sort ``LP`` by the embedded dn's reverse key -- the
   ``(|L2| m / B) log(|L2| m / B)`` term of Theorem 7.1;
3. co-scan the sorted ``LP`` with L1 (already in the same order), folding
   each matching pair into the witness-aggregate states of its unique L1
   entry; every L1 entry (witnessed or not) is emitted annotated;
4. the shared selection phase applies the filter.

``vd (L1, L2, a)`` is symmetric but the pairs come from L1 and must be
re-grouped by their owning entry after matching, which costs one more sort
of the matched pairs.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..model.dn import DN, DNSyntaxError
from ..query.aggregates import AggSelFilter
from ..storage.extsort import external_sort
from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter
from .common import WitnessFold, witness_terms_of
from .selection import select_annotated

__all__ = ["embedded_ref_select"]


def embedded_ref_select(
    pager: Pager,
    op: str,
    first: Run,
    second: Run,
    attribute: str,
    agg_filter: Optional[AggSelFilter] = None,
    memory_pages: int = 4,
) -> Run:
    """Evaluate ``(op first second attribute [agg_filter])`` on sorted runs."""
    if op not in ("vd", "dv"):
        raise ValueError("unknown embedded-reference operator %r" % op)
    terms = witness_terms_of(agg_filter)
    skipped: List[int] = [0]
    if op == "dv":
        annotated = _annotate_dv(
            pager, first, second, attribute, terms, memory_pages, skipped
        )
    else:
        annotated = _annotate_vd(
            pager, first, second, attribute, terms, memory_pages, skipped
        )
    try:
        result = select_annotated(pager, annotated, terms, agg_filter)
    finally:
        annotated.free()
    # Surface unparseable embedded references instead of dropping them
    # silently: the count rides on the result run, up to QueryResult /
    # EXPLAIN --analyze.
    result.eval_errors += skipped[0]
    return result


def _dn_values(entry, attribute: str, skipped: List[int]) -> Iterator[DN]:
    """The dn-valued occurrences of ``attribute`` on an entry.

    A string value that is not a parseable dn cannot be an embedded
    reference; it is skipped and counted in ``skipped[0]`` (the paper's
    model types the attribute as dn-valued, but real data lies).  Any
    other error propagates -- only the expected coercion failure is
    caught."""
    for value in entry.values(attribute):
        if isinstance(value, DN):
            yield value
        elif isinstance(value, str):
            try:
                yield DN.parse(value)
            except DNSyntaxError:
                skipped[0] += 1
                continue


def _exploded(pager, run: Run, attribute, memory_pages, skipped) -> Run:
    """Phases 1-2, the list ``LP``: every dn-valued ``attribute`` of every
    entry of ``run`` as an ``(embedded dn key, entry)`` pair, sorted by
    the embedded key -- the order the other operand is already in."""
    pairs = RunWriter(pager)
    for entry in run:
        for target in _dn_values(entry, attribute, skipped):
            pairs.append((target.key(), entry))
    pair_run = pairs.close()
    sorted_pairs = external_sort(
        pager, pair_run, key=lambda pair: pair[0], memory_pages=memory_pages
    )
    pair_run.free()
    return sorted_pairs


def _annotate_dv(pager, first, second, attribute, terms, memory_pages,
                 skipped) -> Run:
    # LP from L2: (embedded dn key, witness) lines up with L1 as it is.
    sorted_pairs = _exploded(pager, second, attribute, memory_pages, skipped)
    annotated = _fold_witnesses_into(pager, first, sorted_pairs, terms)
    sorted_pairs.free()
    return annotated


def _annotate_vd(pager, first, second, attribute, terms, memory_pages,
                 skipped) -> Run:
    # LP from L1: (embedded dn key, owner) lines up with L2.
    sorted_pairs = _exploded(pager, first, attribute, memory_pages, skipped)

    # Co-scan with L2; a pair whose embedded dn names an L2 entry yields
    # a (owner dn key, owner, witness) match.
    matches = RunWriter(pager)
    reader = sorted_pairs.reader()
    witness_reader = second.reader()
    while True:
        pair = reader.peek()
        witness = witness_reader.peek()
        if pair is None or witness is None:
            break
        target_key = pair[0]
        witness_key = witness.dn.key()
        if target_key == witness_key:
            _key, owner = reader.next()
            matches.append((owner.dn.key(), owner, witness))
        elif target_key < witness_key:
            reader.next()
        else:
            witness_reader.next()
    sorted_pairs.free()
    match_run = matches.close()

    # Regroup the matches by owner and fold along a co-scan of L1.
    sorted_matches = external_sort(
        pager, match_run, key=lambda match: match[0], memory_pages=memory_pages
    )
    match_run.free()
    annotated = _fold_witnesses_into(pager, first, sorted_matches, terms)
    sorted_matches.free()
    return annotated


def _fold_witnesses_into(pager, first: Run, keyed_run: Run, terms) -> Run:
    """Co-scan L1 with ``keyed_run`` -- records sorted by the L1 dn key in
    slot 0, a witness in the last slot -- folding each witness into the
    aggregate states of its L1 entry; every L1 entry is emitted annotated."""
    fold = WitnessFold(terms)
    writer = RunWriter(pager)
    keyed_reader = keyed_run.reader()
    for entry in first:
        entry_key = entry.dn.key()
        state = fold.zero
        while True:
            record = keyed_reader.peek()
            if record is None or record[0] > entry_key:
                break
            keyed_reader.next()
            if record[0] == entry_key:
                state = fold.add(state, record[-1])
        writer.append((entry, fold.values(state)))
    return writer.close()
