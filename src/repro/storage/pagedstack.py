"""A stack that spills to the block device (for Figures 2, 4, 5, 6).

The paper's stack algorithms note that "particular stack entries may be
swapped out (and eventually re-fetched) from the memory multiple times when
the stack repeatedly grows and shrinks", yet the overall I/O remains
``O((|L1| + |L2|)/B)``.  A naive one-page cache does *not* give that bound
(alternating push/pop at a page boundary causes one transfer per
operation); the standard fix, used here, is hysteresis: keep up to two
pages' worth of the stack top in memory, spill the deeper page only when
the in-memory portion reaches ``2B``, and re-fetch one page only when it
empties.  Between two consecutive spills of the same region at least ``B``
pushes (or pops) must occur, so the amortised cost is ``O(1/B)`` transfers
per operation -- exactly the paper's claim.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .pager import Pager

__all__ = ["PagedStack"]


class PagedStack:
    """LIFO stack with amortised ``O(1/B)`` page transfers per operation.

    :attr:`top` is the in-memory top, deepest first, and stays the same
    list for the stack's life.  A caller on a hot loop may push and pop on
    it directly, as long as it calls :meth:`spill` when it reaches ``2B``
    items and :meth:`refill` when it empties -- which is all
    :meth:`push`, :meth:`pop` and :meth:`peek` do around it."""

    def __init__(self, pager: Pager):
        self.pager = pager
        self._spilled: List[int] = []  # page ids, deepest first; B items each
        self.top: List[Any] = []
        self.max_depth = 0

    def push(self, item: Any) -> None:
        self.top.append(item)
        depth = len(self)
        if depth > self.max_depth:
            self.max_depth = depth
        if len(self.top) >= 2 * self.pager.page_size:
            self.spill()

    def spill(self) -> None:
        """Write the deepest ``B`` in-memory items to a page."""
        page_size = self.pager.page_size
        self._spilled.append(self.pager.append_page(self.top[:page_size]))
        del self.top[:page_size]

    def pop(self) -> Any:
        if not self.top:
            self.refill()
        if not self.top:
            raise IndexError("pop from empty PagedStack")
        return self.top.pop()

    def peek(self) -> Optional[Any]:
        """Top of stack without popping; None when empty."""
        if self.top:
            return self.top[-1]
        return self.refill()

    def refill(self) -> Optional[Any]:
        """With the in-memory top empty, read back the most recently
        spilled page; returns the new top item, None when the stack is
        empty."""
        if not self._spilled:
            return None
        page_id = self._spilled.pop()
        self.top.extend(self.pager.read(page_id))
        self.pager.free(page_id)
        return self.top[-1]

    def clear(self) -> None:
        """Drop every item, releasing the spilled pages unread."""
        for page_id in self._spilled:
            self.pager.free(page_id)
        self._spilled = []
        del self.top[:]

    def __len__(self) -> int:
        return len(self._spilled) * self.pager.page_size + len(self.top)

    def is_empty(self) -> bool:
        return not self.top and not self._spilled

    def __repr__(self) -> str:
        return "PagedStack(depth=%d, spilled_pages=%d)" % (
            len(self),
            len(self._spilled),
        )
