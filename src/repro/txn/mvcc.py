"""MVCC for the pending-update overlay: a version log plus one cumulative,
indexed delta per chain head.

The differential update scheme keeps mutations in an overlay ahead of the
read-optimised master run.  The seed kept that overlay in three mutable
structures, so a reader racing a writer could observe half an update.
Here the overlay is immutable instead:

- every committed mutation appends one :class:`Version` holding only its
  *delta* (one added/modified entry, one deleted dn, or one deleted
  subtree root) to the chain's log;
- the chain also keeps ONE :class:`Delta` -- the cumulative overlay at its
  head: a dict for O(1) point lookups, the same dns as a list of
  ``(reverse-dn key, dn)`` pairs sorted by key for O(log n) subtree
  slices, and the non-nested subtree-delete roots.  A commit *derives*
  the next head's delta from the current one (a C-level copy plus
  O(delta) work) and hands it forward: the chain drops its reference to
  the old one, so a delta lives exactly as long as a snapshot still
  reads it -- never one cumulative copy per version;
- a :class:`Snapshot` is that delta plus the lsn pair it was taken at,
  captured under the chain lock in O(1).  A published delta is never
  mutated, so a snapshot answers exactly as of its lsn forever -- neither
  later commits nor later truncations can reach into it;
- compaction *promotes* a prefix of the log into a fresh master run and
  raises the floor; :meth:`VersionChain.truncate` then starts a new log
  with the versions above the new floor and rebuilds the head's delta
  from them -- the only time a delta is built from versions.  Retirement
  is driven by the maintenance agent (or the synchronous compaction
  fallback), never by a reader.

Deltas apply with the precedence the seed's mutable overlay had: a later
add resurrects a dn deleted earlier, a later subtree delete clears every
earlier point action beneath it, and an add under an already deleted root
survives (it is newer than the delete).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..model.dn import DN, subtree_upper_bound
from ..model.entry import Entry

__all__ = ["Delta", "Snapshot", "Version", "VersionChain"]

#: The cumulative overlay: (adds, point deletes, subtree-delete roots).
FoldedState = Tuple[Dict[DN, Entry], Set[DN], Set[DN]]

_MISSING = object()


#: One element of a sorted overlay list: ``(dn.key(), dn)``.  Pairs order
#: by key (dn order *is* key order), and a 1-tuple ``(key,)`` sorts just
#: before the pair with that key, so plain tuple bisection finds both.
KeyedDN = Tuple[tuple, DN]


def _subtree_slice(keyed: Sequence[KeyedDN], base: DN) -> Tuple[int, int]:
    """The half-open slice of ``keyed`` (sorted) at or below ``base``."""
    key = base.key()
    return (
        bisect_left(keyed, (key,)),
        bisect_left(keyed, (subtree_upper_bound(key),)),
    )


class Version:
    """One committed mutation's delta."""

    __slots__ = ("lsn", "adds", "deletes", "delete_subtrees")

    def __init__(
        self,
        lsn: int,
        adds: Optional[Dict[DN, Entry]] = None,
        deletes: Iterable[DN] = (),
        delete_subtrees: Iterable[DN] = (),
    ):
        self.lsn = lsn
        self.adds = dict(adds or {})
        self.deletes = frozenset(deletes)
        self.delete_subtrees = frozenset(delete_subtrees)

    def __repr__(self) -> str:
        return "Version(lsn=%d, +%d, -%d, -%d subtrees)" % (
            self.lsn,
            len(self.adds),
            len(self.deletes),
            len(self.delete_subtrees),
        )


class Delta:
    """The cumulative overlay at one chain head.  Read-only once a
    snapshot can see it: :meth:`derive` copies, nothing else writes."""

    __slots__ = ("point", "order", "roots")

    def __init__(self):
        #: dn -> its overlay image: the entry an add/modify supplies, or
        #: None for a point delete.
        self.point: Dict[DN, Optional[Entry]] = {}
        #: The dns of ``point`` as sorted ``(key, dn)`` pairs.
        self.order: List[KeyedDN] = []
        #: Subtree-delete roots as sorted ``(key, dn)`` pairs, non-nested
        #: (a root under another deleted root is redundant and not kept),
        #: so their key ranges are disjoint and one bisection finds the
        #: root covering a dn.
        self.roots: Tuple[KeyedDN, ...] = ()

    def __len__(self) -> int:
        """Distinct pending overlay actions."""
        return len(self.point) + len(self.roots)

    def derive(self, version: Version) -> "Delta":
        """The delta one version later; this one is left untouched."""
        derived = Delta()
        derived.point = self.point.copy()
        derived.order = self.order.copy()
        derived.roots = self.roots
        derived._apply(version)
        return derived

    def _apply(self, version: Version) -> None:
        for dn, entry in version.adds.items():
            self._set(dn, entry)
        for dn in version.deletes:
            self._set(dn, None)
        for root in version.delete_subtrees:
            low, high = self.span(root)
            for _, dn in self.order[low:high]:
                del self.point[dn]
            del self.order[low:high]
            if self.covering_root(root) is None:
                kept = [r for r in self.roots if not root.is_prefix_of(r[1])]
                insort(kept, (root.key(), root))
                self.roots = tuple(kept)

    def _set(self, dn: DN, image: Optional[Entry]) -> None:
        if dn not in self.point:
            insort(self.order, (dn.key(), dn))
        self.point[dn] = image

    def span(self, base: DN) -> Tuple[int, int]:
        """The half-open slice of :attr:`order` under ``base`` (base
        included)."""
        return _subtree_slice(self.order, base)

    def covering_root(self, dn: DN) -> Optional[DN]:
        """The deleted subtree root at or above ``dn``, if any."""
        roots = self.roots
        if roots:
            index = bisect_right(roots, (dn.key(), dn)) - 1
            if index >= 0 and roots[index][1].is_prefix_of(dn):
                return roots[index][1]
        return None

    def roots_under(self, base: DN) -> Tuple[KeyedDN, ...]:
        """The deleted subtree roots at or below ``base``."""
        if not self.roots:
            return ()
        low, high = _subtree_slice(self.roots, base)
        return self.roots[low:high]

    def lookup(self, dn: DN) -> Optional[Tuple[str, Optional[Entry]]]:
        """See :meth:`Snapshot.overlay_lookup`."""
        image = self.point.get(dn, _MISSING)
        if image is _MISSING:
            if self.covering_root(dn) is None:
                return None
            image = None
        return ("delete", None) if image is None else ("add", image)


class Snapshot:
    """An immutable view of the overlay at one lsn.

    ``delta`` is the cumulative overlay above ``floor_lsn`` -- the lsn the
    paired master run already contains -- shared, never copied, and never
    mutated after capture, so a snapshot keeps answering correctly after
    any number of commits, compactions and chain truncations.  Treat
    ``delta`` as read-only; :meth:`folded` hands out copies.
    """

    __slots__ = ("lsn", "floor_lsn", "delta", "_log", "_count")

    def __init__(self, lsn: int, floor_lsn: int, delta: Delta,
                 log: List[Version], count: int):
        #: The snapshot's position in the commit order.
        self.lsn = lsn
        self.floor_lsn = floor_lsn
        self.delta = delta
        # The chain's log only ever grows by appends (truncation starts a
        # new list), so (list, length at capture) pins the versions
        # without copying them.
        self._log = log
        self._count = count

    @property
    def versions(self) -> Tuple[Version, ...]:
        """The newest-first deltas above the floor (materialised on
        demand; nothing on a read or write path needs them)."""
        return tuple(reversed(self._log[: self._count]))

    def overlay_lookup(self, dn: DN) -> Optional[Tuple[str, Optional[Entry]]]:
        """The overlay's verdict on ``dn``: ``("add", entry)`` if an
        add/modify supplies its current image, ``("delete", None)`` if a
        delete removed it, None if the overlay is silent (fall through to
        the master run)."""
        return self.delta.lookup(dn)

    def is_deleted(self, dn: DN) -> bool:
        verdict = self.delta.lookup(dn)
        return verdict is not None and verdict[0] == "delete"

    def folded(self) -> FoldedState:
        """The cumulative overlay as fresh (adds, point deletes, subtree
        roots) containers the caller may mutate -- an O(pending) copy;
        read paths use :attr:`delta` instead."""
        adds: Dict[DN, Entry] = {}
        deletes: Set[DN] = set()
        for dn, image in self.delta.point.items():
            if image is None:
                deletes.add(dn)
            else:
                adds[dn] = image
        return (adds, deletes, {root for _, root in self.delta.roots})

    def pending(self) -> int:
        """How many distinct overlay actions the snapshot carries."""
        return len(self.delta)

    def __repr__(self) -> str:
        return "Snapshot(lsn=%d, floor=%d, pending=%d)" % (
            self.lsn,
            self.floor_lsn,
            len(self.delta),
        )


class VersionChain:
    """The writer-side chain: version log, head delta, floor, lsn
    allocation.

    ``advance`` is the only mutation and runs under the chain lock, so
    lsns are allocated densely in commit order; snapshots taken at any
    moment see a consistent (head, floor) pair.
    """

    def __init__(self, start_lsn: int = 0):
        self._lock = threading.Lock()
        #: Versions above the floor, oldest first.
        self._log: List[Version] = []
        #: The cumulative overlay of ``_log`` (handed forward by
        #: :meth:`advance`, rebuilt by :meth:`truncate`).
        self._delta = Delta()
        self._floor_lsn = start_lsn
        self._next_lsn = start_lsn + 1

    @property
    def head_lsn(self) -> int:
        with self._lock:
            return self._next_lsn - 1

    @property
    def floor_lsn(self) -> int:
        with self._lock:
            return self._floor_lsn

    def advance(
        self,
        adds: Optional[Dict[DN, Entry]] = None,
        deletes: Iterable[DN] = (),
        delete_subtrees: Iterable[DN] = (),
    ) -> Version:
        """Commit one delta; returns the new head version (its ``lsn`` is
        the commit's sequence number)."""
        with self._lock:
            version = Version(self._next_lsn, adds, deletes, delete_subtrees)
            self._next_lsn += 1
            self._log.append(version)
            self._delta = self._delta.derive(version)
            return version

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(
                self._next_lsn - 1,
                self._floor_lsn,
                self._delta,
                self._log,
                len(self._log),
            )

    def pending(self) -> int:
        """Distinct overlay actions above the floor, in O(1)."""
        with self._lock:
            return len(self._delta)

    def truncate(self, upto_lsn: int) -> int:
        """Raise the floor to ``upto_lsn`` (a compaction folded everything
        at or below it into the master): start a new log with the versions
        above it and rebuild the head's delta from them, so retired
        versions can be collected.  Existing snapshots are unaffected:
        they hold their own delta and the old log.  Returns the new
        floor."""
        with self._lock:
            if upto_lsn <= self._floor_lsn:
                return self._floor_lsn
            self._floor_lsn = upto_lsn
            self._log = [v for v in self._log if v.lsn > upto_lsn]
            delta = Delta()
            for version in self._log:
                delta._apply(version)
            self._delta = delta
            return self._floor_lsn

    def __repr__(self) -> str:
        with self._lock:
            return "VersionChain(head=%d, floor=%d)" % (
                self._next_lsn - 1,
                self._floor_lsn,
            )
