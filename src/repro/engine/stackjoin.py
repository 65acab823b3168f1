"""The generalised stack pass behind Figures 2, 4, 5 and 6.

One pass covers all six hierarchical operators, in both their plain (L1)
and aggregate (L2) forms.  Its input is one sorted labelled stream of the
operands -- :func:`repro.engine.common.labeled_merge` of their runs, or
the planned engine's one shared scan of a common base
(:func:`repro.engine.atomic.shared_scan`) -- and a stack of frames
mirrors the root-to-leaf chain of the entries that matter to the
operator (observation (2) of Section 5.3: when an entry arrives, exactly
its stacked ancestors are on the stack).  Ancestry is a key-prefix test
on the reversed-dn keys the stream is sorted by.

- The ``below`` direction (``p``, ``a``, ``ac``: witnesses up the chain)
  is resolved at *push* time from the frame beneath.  Only witnesses (and
  ``ac`` blockers) are pushed, and an entry of the first operand is
  selected the moment it arrives, so survivors reach the output in stream
  order with nothing deferred.
- The ``above`` direction (``c``, ``d``, ``dc``: witnesses in the subtree)
  accumulates into the nearest stacked first-operand entry as witnesses
  arrive and, for ``d``/``dc``, propagates upward on pop exactly as the
  ``above(rb) = above(rb) + above(rt)`` line of Figure 4.  An entry is
  decided when it is popped; a survivor waits in a
  :class:`~repro.engine.common.SpillList` (created for a frame's first
  one) only while a stacked ancestor is still undecided, since it must
  follow that ancestor in the output.
- For the path-constrained operators, entries labelled 3 reset the below
  chain and absorb (rather than propagate) above states -- the
  ``3 not in label`` guards of Figure 5.

Witness state is a value (:class:`~repro.engine.common.WitnessFold`): the
paper's integer counters for ``count($2)``, immutable tuples for the
Section 6.4 aggregates, so a frame shares its parent's state by
reference.  A plain operator keeps an entry whose count is positive
(Section 6.2's closing remark); an aggregate filter without entry-set
aggregates is tested per entry as it resolves; one with them needs the
whole population first, so :func:`hierarchical_annotate` writes the
annotated run and :func:`~repro.engine.hsagg.hierarchical_select`
selects from it in a second phase.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..model.entry import Entry
from ..query.aggregates import EntryAggregate
from ..storage.pagedstack import PagedStack
from ..storage.pager import Pager
from ..storage.runs import Run, RunWriter
from .common import SpillList, WITNESS_COUNT, WitnessFold

__all__ = ["stack_pass", "hierarchical_annotate", "BELOW_OPS", "ABOVE_OPS"]

#: Operators whose witness sets lie on the root-ward chain.
BELOW_OPS = ("p", "a", "ac")
#: Operators whose witness sets lie in the subtree.
ABOVE_OPS = ("c", "d", "dc")

#: ``(entry, label)`` pairs in reversed-dn key order; ``label`` holds the
#: 1-based operands the entry belongs to.
Labelled = Iterable[Tuple[Entry, frozenset]]

#: What becomes of an entry of the first operand once its state is
#: resolved: the record to write, or None to drop it.  None in its place
#: means the plain operator (keep the entry iff its count is positive).
Keep = Optional[Callable[[Entry, object], object]]


def hierarchical_annotate(
    pager: Pager,
    op: str,
    stream: Labelled,
    terms: Optional[Sequence[EntryAggregate]] = None,
) -> Run:
    """Every entry of the first operand, in sorted order, paired with the
    resolved value of each witness-aggregate term (default ``count($2)``):
    the first phase of a selection whose filter has entry-set
    aggregates."""
    fold = WitnessFold(terms if terms else [WITNESS_COUNT])
    values = fold.values
    return stack_pass(pager, op, stream, fold, lambda entry, state: (entry, values(state)))


def stack_pass(pager: Pager, op: str, stream: Labelled, fold: WitnessFold, keep: Keep) -> Run:
    """One pass over ``stream``; every page it holds is released if the
    stream or the filter raises."""
    if op in BELOW_OPS:
        resolve = _resolve_at_push
    elif op in ABOVE_OPS:
        resolve = _resolve_at_pop
    else:
        raise ValueError("unknown hierarchical operator %r" % op)
    writer = RunWriter(pager)
    stack = PagedStack(pager)
    try:
        resolve(pager, op, stream, fold, keep, writer, stack)
    except BaseException:
        while not stack.is_empty():
            frame = stack.pop()
            if op in ABOVE_OPS and frame[4] is not None:
                frame[4].free()  # the frame's deferred survivors
        writer.close().free()
        raise
    stack.clear()
    return writer.close()


def _resolve_at_push(pager, op, stream, fold, keep, writer, stack) -> None:
    """``p``/``a``/``ac`` (Figures 2, 4 and 5, below direction).  A frame is
    ``(key, label, entry, state)`` of a witness or blocker, ``state``
    counting the witnesses that reach it from above."""
    counting, zero, add = fold.counting, fold.zero, fold.add
    parent_only = op == "p"
    cut = op == "ac"
    push, pop, peek, append = stack.push, stack.pop, stack.peek, writer.append
    top = None
    for entry, label in stream:
        key = entry.dn.key()
        depth = len(key)
        # Unwind to the nearest stacked ancestor.
        while top is not None:
            top_key = top[0]
            if len(top_key) < depth and key[: len(top_key)] == top_key:
                break
            pop()
            top = peek()
        if top is None:
            state = zero
        elif parent_only:
            # Every frame is a witness; it counts only as the parent.
            state = zero
            if len(top[0]) + 1 == depth:
                state = 1 if counting else add(zero, top[2])
        else:
            # An intervening blocker cuts the chain (Figure 5); a blocker
            # that is itself a witness still contributes itself.
            top_label = top[1]
            state = zero if cut and 3 in top_label else top[3]
            if 2 in top_label:
                state = state + 1 if counting else add(state, top[2])
        if 1 in label:
            if keep is None:
                if state:
                    append(entry)
            else:
                record = keep(entry, state)
                if record is not None:
                    append(record)
        if 2 in label or (cut and 3 in label):
            top = (key, label, entry, state)
            push(top)


def _resolve_at_pop(pager, op, stream, fold, keep, writer, stack) -> None:
    """``c``/``d``/``dc`` (Figures 2, 4 and 5, above direction).  A frame is
    ``[key, label, entry, state, deferred]`` of an entry of the first
    operand or a ``dc`` blocker: ``state`` folds the witnesses below it,
    ``deferred`` is None or the SpillList of survivors from its subtree
    that must follow an undecided ancestor."""
    counting, zero, add, merge = fold.counting, fold.zero, fold.add, fold.merge
    children_only = op == "c"
    absorb = op == "dc"
    push, pop, peek, append = stack.push, stack.pop, stack.peek, writer.append
    # Stacked entries of the first operand: while there are any, a
    # survivor must wait for them.
    undecided = 0

    def pop_frame():
        nonlocal undecided
        _key, label, entry, state, deferred = pop()
        below = peek()
        if 1 in label:
            undecided -= 1
            if keep is None:
                record = entry if state else None
            else:
                record = keep(entry, state)
            if record is not None:
                if not undecided:
                    append(record)
                else:
                    if deferred is None:
                        deferred = SpillList(pager)
                    # The entry sorts before everything in its subtree.
                    deferred.prepend(record)
        if deferred is not None:
            if not undecided:
                deferred.flush_to(writer)
            elif below[4] is None:
                below[4] = deferred
            else:
                below[4].concat(deferred)
        if below is not None and not children_only and not (absorb and 3 in label):
            below[3] = below[3] + state if counting else merge(below[3], state)
        return below

    top = None
    for entry, label in stream:
        key = entry.dn.key()
        depth = len(key)
        while top is not None:
            top_key = top[0]
            if len(top_key) < depth and key[: len(top_key)] == top_key:
                break
            top = pop_frame()
        if top is not None and 2 in label and (not children_only or len(top[0]) + 1 == depth):
            top[3] = top[3] + 1 if counting else add(top[3], entry)
        if 1 in label:
            undecided += 1
        elif not (absorb and 3 in label):
            continue
        top = [key, label, entry, zero, None]
        push(top)
    while top is not None:
        top = pop_frame()
