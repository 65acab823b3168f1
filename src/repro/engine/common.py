"""Shared machinery of the external-memory operators.

Two pieces every algorithm in Figures 2--6 needs:

- :func:`labeled_merge` -- the "lexicographic merge of L1 and L2 (and L3)":
  a single sorted stream of entries, each tagged with the set of input
  lists it belongs to (``label(rl) = {i | rl in Li}``), held as an int
  membership mask (bit ``i - 1`` for list ``i``).

- :class:`SpillList` -- an ordered list of records that supports appends
  and O(1) concatenation, spilling full pages to the device.  The
  descendant-directed stack operators resolve an entry's witness counts
  only when it is *popped* (post-order), while their output must be in
  sorted (pre-order) dn order; a stack frame whose subtree holds an
  already-selected entry therefore carries a SpillList of them, lists are
  concatenated parent-ward on pop, and they reach the output once no
  stacked ancestor is still undecided.  Every record is written to at
  most one page and read back once, so the extra I/O is ``O(output / B)``
  plus at most one partial page per pop -- linear, as Theorem 5.1
  requires (see DESIGN.md for the discussion).

:class:`WitnessFold` generalises the paper's ``above``/``below`` counters
to any distributive or algebraic aggregate, as Section 6.4 prescribes,
and keeps them values: an int for ``count($2)``, tuples otherwise.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..model.entry import Entry
from ..query.aggregates import AGG_EMPTY, EntryAggregate, agg_add, agg_merge, agg_result
from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter

__all__ = [
    "labeled_merge",
    "Labelled",
    "SpillList",
    "Annotated",
    "WITNESS_COUNT",
    "WitnessFold",
    "witness_terms_of",
]

#: An annotated record: the entry plus the resolved values of each
#: witness-aggregate term, in term order.
Annotated = Tuple[Entry, Tuple[Optional[float], ...]]

#: ``(entry, label)`` pairs in reversed-dn key order; ``label`` is the
#: entry's membership mask (bit ``i - 1``: it belongs to operand ``i``).
Labelled = Iterable[Tuple[Entry, int]]


def labeled_merge(runs: Sequence[Run]) -> Iterator[Tuple[Entry, int]]:
    """Merge sorted entry runs into one stream of (entry, label) pairs.

    ``label`` is the entry's membership mask: bit ``i - 1`` is set when
    run ``i`` holds the entry (entries are identified by dn).  Where
    several runs hold the dn, the entry yielded is the lowest-numbered
    run's copy.  Input runs must be sorted by reverse-dn key and
    duplicate-free individually.

    This is the one merge of entry runs: Section 4.2's boolean operators
    and the first line of Figures 2/4/5/6 both read it.  Runs are opened
    in run order and tied runs advance in run order, which fixes the
    page-read sequence every exact I/O count rests on.  The pairs are
    handed out a batch at a time and chained at C level; a batch ends
    before each page read, so the consumer has done with every earlier
    pair when a page is read -- as it had when the merge went an entry
    at a time -- and physical I/O is unchanged too.
    """
    return chain.from_iterable(_merged_batches(runs))


def _merged_batches(runs: Sequence[Run]) -> Iterator[List[Tuple[Entry, int]]]:
    # One [head key, membership bit, page, offset of the head, rest of the
    # run's pages] slot per run with entries left.
    slots = []
    for index, run in enumerate(runs):
        pages = run.pages()
        page = next(pages, None)
        while page is not None and not page:
            page = next(pages, None)
        if page is not None:
            slots.append([page[0]._dn._key, 1 << index, page, 0, pages])
    batch: List[Tuple[Entry, int]] = []
    while len(slots) > 1:
        best_key = min(slots)[0]  # bits are distinct: pages never compare
        entry: Optional[Entry] = None
        mask = 0
        drained = False
        for slot in slots:
            if slot[0] != best_key:
                continue
            page, at = slot[2], slot[3] + 1
            if entry is None:
                entry = page[at - 1]
            mask |= slot[1]
            while at == len(page):
                if batch:
                    yield batch
                    batch = []
                page, at = next(slot[4], None), 0
                if page is None:
                    break
            if page is None:
                slot[2] = None
                drained = True
            else:
                slot[0] = page[at]._dn._key
                slot[2], slot[3] = page, at
        batch.append((entry, mask))
        if drained:
            slots = [slot for slot in slots if slot[2] is not None]
    if slots:
        # One run left: the rest of it, a page at a time.  A page's last
        # entry follows the read of the next page, as it does above.
        _key, bit, page, at, pages = slots[0]
        while page is not None:
            batch += [(entry, bit) for entry in page[at:-1]]
            last = page[-1]
            if batch:
                yield batch
            page, at = next(pages, None), 0
            while page is not None and not page:
                page = next(pages, None)
            batch = [(last, bit)]
    if batch:
        yield batch


class SpillList:
    """An ordered record list with prepend, append, O(1) concatenation and
    bounded memory.

    Internally: an in-memory *head* buffer, a sequence of spilled page ids,
    and an in-memory *tail* buffer (each buffer below ``B`` records).  The
    head buffer exists for the stack algorithms' pop path -- a frame's own
    resolved entry is *prepended* to the deferred list of its subtree -- so
    the dominant chain-shaped unwinding never writes fragmented pages.  A
    concatenation merges the meeting buffers (this list's tail, the other's
    head) in memory and spills full pages; only when both sides already
    have spilled segments can one partial page remain between them, which
    keeps memory at one head plus one tail per live stack frame.
    ``flush_to`` streams the whole list, in order, into a
    :class:`RunWriter`.
    """

    __slots__ = ("pager", "_head", "_segments", "_tail", "length")

    def __init__(self, pager: Pager):
        self.pager = pager
        self._head: List[Any] = []  # records before the first segment
        self._segments: List[int] = []  # page ids, in order
        self._tail: List[Any] = []  # records after the last segment
        self.length = 0

    def append(self, record: Any) -> None:
        if not self._segments and not self._tail:
            # Everything still lives in the head buffer.
            self._head.append(record)
            self.length += 1
            if len(self._head) >= self.pager.page_size:
                self._segments.append(self.pager.append_page(self._head))
                self._head = []
            return
        self._tail.append(record)
        self.length += 1
        if len(self._tail) >= self.pager.page_size:
            self._segments.append(self.pager.append_page(self._tail))
            self._tail = []

    def prepend(self, record: Any) -> None:
        """Insert ``record`` before every current record."""
        self._head.insert(0, record)
        self.length += 1
        if len(self._head) >= self.pager.page_size:
            self._segments.insert(0, self.pager.append_page(self._head))
            self._head = []

    def concat(self, other: "SpillList") -> None:
        """Append ``other``'s records after this list's.  ``other`` must not
        be used afterwards."""
        if other.length == 0:
            return
        page_size = self.pager.page_size
        length = self.length + other.length
        if not self._segments:
            # This list is fully in memory (head only; a tail implies
            # segments): fold it in front of the other's head.  No partial
            # page is ever needed -- the remainder simply becomes the new
            # head -- which is what keeps chain-shaped unwinding dense.
            combined = self._head + self._tail + other._head
            if not other._segments:
                combined += other._tail
            front_pages: List[int] = []
            while len(combined) >= page_size:
                front_pages.append(self.pager.append_page(combined[:page_size]))
                combined = combined[page_size:]
            if front_pages and other._segments and combined:
                # remainder caught between two spilled regions
                front_pages.append(self.pager.append_page(combined))
                combined = []
            if front_pages:
                self._head = []
                self._segments = front_pages + other._segments
                self._tail = other._tail if other._segments else combined
            else:
                self._head = combined
                self._segments = list(other._segments)
                self._tail = other._tail if other._segments else []
            self.length = length
            other._drop()
            return
        # This list has spilled: the meeting records (our tail, their head,
        # and their tail too when they never spilled) follow our segments.
        middle = self._tail + other._head
        if not other._segments:
            middle += other._tail
        self._tail = []
        while len(middle) >= page_size:
            self._segments.append(self.pager.append_page(middle[:page_size]))
            middle = middle[page_size:]
        if middle:
            if other._segments:
                # Records between two spilled regions: one partial page
                # keeps memory bounded at a head+tail pair per live list.
                self._segments.append(self.pager.append_page(middle))
            else:
                self._tail = middle
        if other._segments:
            self._segments.extend(other._segments)
            self._tail = other._tail
        self.length = length
        other._drop()

    def flush_to(self, writer: RunWriter) -> None:
        """Stream every record into ``writer`` and release the pages."""
        for record in self._head:
            writer.append(record)
        for page_id in self._segments:
            for record in self.pager.read(page_id):
                writer.append(record)
            self.pager.free(page_id)
        for record in self._tail:
            writer.append(record)
        self._drop()

    def free(self) -> None:
        """Discard every record and release the pages (an abandoned pass)."""
        for page_id in self._segments:
            self.pager.free(page_id)
        self._drop()

    def _drop(self) -> None:
        self._head = []
        self._segments = []
        self._tail = []
        self.length = 0

    def __len__(self) -> int:
        return self.length


def witness_terms_of(agg_filter) -> List[EntryAggregate]:
    """The distinct $2-sourced entry-aggregate terms an aggregate selection
    filter needs per entry (these are what the stack pass must maintain).

    The plain hierarchical operators use the single term ``count($2)``.
    """
    if agg_filter is None:
        return [WITNESS_COUNT]
    terms: List[EntryAggregate] = []
    for side in (agg_filter.left, agg_filter.right):
        candidates = []
        if isinstance(side, EntryAggregate):
            candidates.append(side)
        elif hasattr(side, "inner") and side.inner is not None:
            candidates.append(side.inner)
        for term in candidates:
            if term.needs_witnesses() and term not in terms:
                terms.append(term)
    return terms


#: ``count($2)``: the one witness term of every plain operator.
WITNESS_COUNT = EntryAggregate("count", "$2", None)


class WitnessFold:
    """An entry's witness-aggregate state, held as a value.

    For ``terms == [count($2)]`` -- every plain operator and every filter
    on the witness count -- the state is an int, the paper's
    ``above``/``below`` counter.  Otherwise it is a tuple with one
    component per term: an int for ``count($2)`` and an
    :func:`~repro.query.aggregates.agg_add` state for a ``$2.attr``
    aggregate.  :meth:`add` and :meth:`merge` return new values and never
    change their arguments, so a stack frame may hold its parent's state
    by reference."""

    __slots__ = ("terms", "counting", "zero")

    def __init__(self, terms: Sequence[EntryAggregate]):
        self.terms = tuple(terms)
        #: True when the state is a bare int (``count($2)`` alone).
        self.counting = self.terms == (WITNESS_COUNT,)
        self.zero: Any = 0 if self.counting else tuple(
            0 if term.attribute is None else AGG_EMPTY for term in self.terms
        )

    def add(self, state: Any, witness: Entry) -> Any:
        """``state`` with one more witness."""
        if self.counting:
            return state + 1
        return tuple(
            part + 1 if term.attribute is None
            else agg_add(term.func, part, witness.values(term.attribute))
            for part, term in zip(state, self.terms)
        )

    def merge(self, state: Any, other: Any) -> Any:
        """The state of the union of two disjoint witness sets."""
        if self.counting:
            return state + other
        return tuple(
            part + extra if term.attribute is None else agg_merge(part, extra)
            for part, extra, term in zip(state, other, self.terms)
        )

    def values(self, state: Any) -> Tuple[Optional[float], ...]:
        """The resolved value of each term, in term order."""
        if self.counting:
            return (state,)
        return tuple(
            part if term.attribute is None else agg_result(term.func, part)
            for part, term in zip(state, self.terms)
        )
