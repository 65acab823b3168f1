"""Scoped items indexed by their root in the reversed-dn key space.

In Section 5's reversed-dn order (:meth:`~repro.model.dn.DN.key`) every
subtree is one contiguous key range, and a dn's ancestors are exactly the
prefixes of its key.  So "which scopes contain key k?" is a dict probe at
each of k's prefixes, and "which scopes lie under k?" is one cut of the
sorted roots at k and :func:`~repro.model.dn.subtree_upper_bound`: both
O(depth + hits), however many items the index holds elsewhere.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, List, Set

from .dn import subtree_upper_bound

__all__ = ["PrefixIndex"]

_NONE: frozenset = frozenset()


class PrefixIndex:
    """Items registered at root keys, each as a point (the key alone) or a
    subtree (the key and every key below it).  An item may hold several
    registrations; each question returns a matching item once.  The owner
    serialises access."""

    __slots__ = ("_points", "_subtrees", "_roots")

    def __init__(self) -> None:
        self._points: Dict[tuple, Set[Hashable]] = {}
        self._subtrees: Dict[tuple, Set[Hashable]] = {}
        #: The distinct roots of both tables, in key order.
        self._roots: List[tuple] = []

    def add(self, item: Hashable, key: tuple, subtree: bool) -> None:
        table = self._subtrees if subtree else self._points
        other = self._points if subtree else self._subtrees
        items = table.get(key)
        if items is None:
            if key not in other:
                insort(self._roots, key)
            items = table[key] = set()
        items.add(item)

    def discard(self, item: Hashable, key: tuple, subtree: bool) -> None:
        """Undo one :meth:`add`; a root left with no item is forgotten."""
        table = self._subtrees if subtree else self._points
        other = self._points if subtree else self._subtrees
        items = table.get(key)
        if items is None:
            return
        items.discard(item)
        if not items:
            del table[key]
            if key not in other:
                del self._roots[bisect_left(self._roots, key)]

    def containing(self, key: tuple) -> Set[Hashable]:
        """The points at ``key`` and the subtrees rooted at its prefixes."""
        hits = set(self._points.get(key, _NONE))
        subtrees = self._subtrees
        for depth in range(len(key) + 1):
            items = subtrees.get(key[:depth])
            if items is not None:
                hits |= items
        return hits

    def innermost(self, key: tuple) -> Set[Hashable]:
        """The items of the deepest subtree rooted at a *proper* prefix of
        ``key``, or none.  The set is the index's own: do not change it."""
        subtrees = self._subtrees
        for depth in range(len(key) - 1, -1, -1):
            items = subtrees.get(key[:depth])
            if items is not None:
                return items
        return _NONE

    def under(self, key: tuple) -> Set[Hashable]:
        """The points and subtrees rooted at ``key`` or below it."""
        roots = self._roots
        low = bisect_left(roots, key)
        high = bisect_left(roots, subtree_upper_bound(key), low)
        hits: Set[Hashable] = set()
        for root in roots[low:high]:
            hits |= self._points.get(root, _NONE)
            hits |= self._subtrees.get(root, _NONE)
        return hits
