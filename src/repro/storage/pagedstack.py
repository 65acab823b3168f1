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
    """LIFO stack with amortised ``O(1/B)`` page transfers per operation."""

    def __init__(self, pager: Pager):
        self.pager = pager
        self._spilled: List[int] = []  # page ids, deepest first
        self._top: List[Any] = []  # in-memory top, deepest first
        self.max_depth = 0
        self._depth = 0

    def push(self, item: Any) -> None:
        self._top.append(item)
        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        if len(self._top) >= 2 * self.pager.page_size:
            # Spill the deepest B in-memory items.
            spill, self._top = (
                self._top[: self.pager.page_size],
                self._top[self.pager.page_size :],
            )
            self._spilled.append(self.pager.append_page(spill))

    def pop(self) -> Any:
        if not self._top:
            self._refill()
        if not self._top:
            raise IndexError("pop from empty PagedStack")
        self._depth -= 1
        return self._top.pop()

    def peek(self) -> Optional[Any]:
        """Top of stack without popping; None when empty."""
        if not self._top:
            self._refill()
        if not self._top:
            return None
        return self._top[-1]

    def clear(self) -> None:
        """Drop every item, releasing the spilled pages unread."""
        for page_id in self._spilled:
            self.pager.free(page_id)
        self._spilled = []
        self._top = []
        self._depth = 0

    def _refill(self) -> None:
        if not self._spilled:
            return
        page_id = self._spilled.pop()
        self._top = list(self.pager.read(page_id))
        self.pager.free(page_id)

    def __len__(self) -> int:
        return self._depth

    def is_empty(self) -> bool:
        return self._depth == 0

    def __repr__(self) -> str:
        return "PagedStack(depth=%d, spilled_pages=%d)" % (
            self._depth,
            len(self._spilled),
        )
