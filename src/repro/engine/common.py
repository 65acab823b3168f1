"""Shared machinery of the external-memory operators.

Two pieces every algorithm in Figures 2--6 needs:

- :func:`labeled_merge` -- the "lexicographic merge of L1 and L2 (and L3)":
  a single sorted stream of entries, each tagged with the set of input
  lists it belongs to (``label(rl) = {i | rl in Li}``).

- :class:`SpillList` -- an ordered list of records that supports appends
  and O(1) concatenation, spilling full pages to the device.  The stack
  algorithms resolve an entry's witness counts only when it is *popped*
  (post-order), while their output must be in sorted (pre-order) dn order;
  each stack frame therefore carries a SpillList of already-resolved
  entries from its subtree, lists are concatenated parent-ward on pop, and
  the bottom-most pop flushes in sorted order.  Every record is written to
  at most one page and read back once, so the extra I/O is
  ``O(output / B)`` plus at most one partial page per pop -- linear, as
  Theorem 5.1 requires (see DESIGN.md for the discussion).

The per-frame witness-aggregate states (:class:`repro.query.aggregates.AggState`)
generalise the paper's ``above``/``below`` counters to any distributive or
algebraic aggregate, exactly as Section 6.4 prescribes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..model.entry import Entry
from ..query.aggregates import AggState, EntryAggregate
from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter

__all__ = [
    "labeled_merge",
    "SpillList",
    "Annotated",
    "resolve_terms",
    "witness_terms_of",
]

#: An annotated record: the entry plus the resolved values of each
#: witness-aggregate term, in term order.
Annotated = Tuple[Entry, Tuple[Optional[float], ...]]


def labeled_merge(runs: Sequence[Run]) -> Iterator[Tuple[Entry, frozenset]]:
    """Merge sorted entry runs into one stream of (entry, label) pairs.

    ``label`` holds the 1-based indices of the runs containing the entry
    (entries are identified by dn); where several runs hold the dn, the
    entry yielded is the lowest-numbered run's copy.  Input runs must be
    sorted by reverse-dn key and duplicate-free individually.

    This is the one merge of entry runs: Section 4.2's boolean operators
    and the first line of Figures 2/4/5/6 both read it.  Runs are opened
    in run order and tied runs advance in run order, which fixes the
    page-read sequence every exact I/O count rests on.
    """
    # Every label this merge can hand out, indexed by membership bitmask.
    labels = [
        frozenset(index + 1 for index in range(len(runs)) if mask >> index & 1)
        for mask in range(1 << len(runs))
    ]
    # One [head key, membership bit, head, rest of the run] slot per run with
    # entries left.  Taking the next head the moment one is consumed is what
    # a RunReader does: the next page is read as the current one runs out.
    slots = []
    for index, run in enumerate(runs):
        records = iter(run)
        head = next(records, None)
        if head is not None:
            slots.append([head.dn.key(), 1 << index, head, records])
    while slots:
        best_key = min(slots)[0]  # bits are distinct: heads never compare
        entry: Optional[Entry] = None
        mask = 0
        drained = False
        for slot in slots:
            if slot[0] == best_key:
                if entry is None:
                    entry = slot[2]
                mask |= slot[1]
                head = next(slot[3], None)
                if head is None:
                    slot[3] = None
                    drained = True
                else:
                    slot[0] = head.dn.key()
                    slot[2] = head
        if drained:
            slots = [slot for slot in slots if slot[3] is not None]
        yield entry, labels[mask]


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
        return [EntryAggregate("count", "$2", None)]
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


def resolve_terms(states: Sequence[AggState]) -> Tuple[Optional[float], ...]:
    """Freeze a frame's aggregate states into the annotation tuple."""
    return tuple(state.result() for state in states)


def fresh_states(terms: Sequence[EntryAggregate]) -> List[AggState]:
    """One empty state per term."""
    return [term.fresh_state() for term in terms]


def add_witness(states: Sequence[AggState], terms: Sequence[EntryAggregate], witness: Entry) -> None:
    """Fold one witness entry into every term state."""
    for state, term in zip(states, terms):
        if term.attribute is None:
            state.add_count(1)
        else:
            for value in witness.values(term.attribute):
                state.add(value)


def copy_states(states: Sequence[AggState]) -> List[AggState]:
    return [state.copy() for state in states]


def merge_states(into: Sequence[AggState], source: Sequence[AggState]) -> None:
    for target, extra in zip(into, source):
        target.merge(extra)
