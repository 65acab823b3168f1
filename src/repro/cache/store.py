"""The bounded result store: byte budget, cost-aware eviction.

Cached results are wildly heterogeneous -- a white-pages point lookup
costs a handful of page reads, a hierarchical aggregate over a big
subtree costs thousands -- so plain LRU (which only knows recency) evicts
exactly the entries that are most expensive to recompute.  We use
**GreedyDual-Size** (Cao & Irani, USENIX 1997): each resident entry has a
priority ``H = L + cost / size`` where ``cost`` is the logical page I/O
the original evaluation spent (the work a future hit saves), ``size`` is
the entry's byte estimate, and ``L`` is a monotonically inflating floor
set to the priority of the last eviction.  A hit refreshes ``H`` against
the current ``L``, which is how recency re-enters; eviction removes the
minimum-``H`` entry.  GreedyDual-Size degenerates to LRU when all costs
and sizes are equal, and to cost-ordered eviction when recency is equal
-- precisely the "cost-aware LRU" blend wanted here.

Entries carry their :class:`~repro.cache.footprint.Footprint` and an
optional opaque *tag* (the federation tags remote sublists with the
owning server), so :meth:`QueryCache.invalidate_tag` can drop one origin
wholesale and :meth:`QueryCache.invalidate` can evict exactly the
residents whose footprint intersects the updated region, which a
:class:`~repro.model.prefix_index.PrefixIndex` over the footprints names.
"""

from __future__ import annotations

import heapq
import threading
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..model.entry import Entry
from ..model.prefix_index import PrefixIndex
from ..obs.log import LOG
from ..query.ast import AtomicQuery, Scope
from .footprint import Footprint
from .stats import CacheStats

__all__ = ["CachedResult", "QueryCache"]


class CachedResult:
    """One cached query result (the pre-ACL entry list plus bookkeeping)."""

    __slots__ = (
        "key",
        "query_text",
        "entries",
        "footprint",
        "cost_io",
        "size_bytes",
        "tag",
        "query",
        "hits",
        "priority",
        "seq",
        "superset_key",
    )

    def __init__(
        self,
        key: str,
        query_text: str,
        entries: Sequence[Entry],
        footprint: Footprint,
        cost_io: int,
        tag: Optional[str] = None,
        query=None,
    ):
        self.key = key
        self.query_text = query_text
        self.entries: Tuple[Entry, ...] = tuple(entries)
        self.footprint = footprint
        #: Logical page I/O the original evaluation cost == saved per hit.
        self.cost_io = cost_io
        self.size_bytes = _approx_bytes(self.entries)
        self.tag = tag
        #: The parsed query AST, when the producer supplies it -- the
        #: incremental maintainer re-evaluates membership against it.
        self.query = query
        self.hits = 0
        self.priority = 0.0
        self.seq = 0  # admission order: residence order is ascending seq
        #: A ``sub`` atomic query's root in the superset index, else None.
        self.superset_key = None
        if isinstance(query, AtomicQuery) and query.scope == Scope.SUB:
            self.superset_key = (str(query.filter),) + query.base.key()

    def __repr__(self) -> str:
        return "CachedResult(%s, %d entries, cost=%d, %dB)" % (
            self.query_text,
            len(self.entries),
            self.cost_io,
            self.size_bytes,
        )


class QueryCache:
    """A bounded map from fingerprint to :class:`CachedResult`.

    Thread-safe: lookups, admissions (including the GreedyDual-Size
    eviction loop and its floor/heap state) and invalidations run under
    one reentrant lock, which is also attached to :attr:`stats` so
    bracketed cache-stat snapshots are consistent.  Without the lock a
    concurrent ``put``/``put`` pair can double-count resident bytes and
    evict for ever, and ``get``/``invalidate`` can resurrect a heap entry
    for a removed key.
    """

    def __init__(self, byte_budget: int = 512 * 1024):
        if byte_budget < 1:
            raise ValueError("byte_budget must be positive")
        self.byte_budget = byte_budget
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self.stats.attach_lock(self._lock)
        self._entries: Dict[str, CachedResult] = {}
        self._bytes = 0
        #: Bumped by every write-driven mutation (invalidate / patch /
        #: drop / clear).  A reader captures it before evaluating and
        #: passes it to :meth:`put` as ``if_epoch``: if any invalidation
        #: ran in between, the result may predate the write and is not
        #: admitted (the stale result is in flight, not resident, so the
        #: invalidation itself cannot evict it).
        self._invalidation_epoch = 0
        # GreedyDual-Size state: the inflating floor and a lazy min-heap of
        # (priority, key) candidates (stale heap items are skipped).
        self._floor = 0.0
        self._heap: List[Tuple[float, str]] = []
        self._seq = 0
        # Residents at their footprints' ranges, and ``sub`` atomic ones at
        # filter text + base key (so a base's ancestors are key prefixes).
        self._scopes, self._supersets = PrefixIndex(), PrefixIndex()

    # -- lookups -----------------------------------------------------------

    def get(self, key: str) -> Optional[CachedResult]:
        """The cached result for ``key``, or None; counts hit/miss and
        refreshes the entry's eviction priority."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.saved_logical_io += entry.cost_io
            entry.hits += 1
            self._reprioritise(entry)
            return entry

    def find_superset(self, base, filter_text: str) -> Optional[CachedResult]:
        """A resident whose query provably *contains* ``(base ? sub ?
        filter)``: same filter, sub scope, base a proper ancestor of
        ``base``.  Subtree semantics make containment syntactic -- the
        wider subtree's matches restricted to ``subtree(base)`` are
        exactly the narrower query's result -- so the planner can serve
        the narrow query by filtering the resident's entries, no page I/O
        at all.  Picks the deepest (smallest) covering resident, the
        later admitted of two on one base, and accounts it as a hit."""
        with self._lock:
            covering = self._supersets.innermost((filter_text,) + base.key())
            if not covering:
                return None
            best = max(covering, key=_residence)
            self.stats.hits += 1
            self.stats.superset_hits += 1
            self.stats.saved_logical_io += best.cost_io
            best.hits += 1
            self._reprioritise(best)
            return best

    def peek(self, key: str) -> Optional[CachedResult]:
        """Like :meth:`get` but without touching any accounting."""
        with self._lock:
            return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[CachedResult]:
        with self._lock:
            return iter(list(self._entries.values()))

    def touching(self, dn, subtree: bool = False) -> List[CachedResult]:
        """The residents whose footprint touches one dn (or its subtree),
        in residence order: a patch that outgrows the budget evicts itself,
        so which patches fit depends on the ones before it."""
        key = dn.key()
        with self._lock:
            hits = self._scopes.containing(key)
            if subtree:
                hits |= self._scopes.under(key)
            return sorted(hits, key=_residence)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def invalidation_epoch(self) -> int:
        """Capture before evaluating; pass to :meth:`put` as ``if_epoch``."""
        with self._lock:
            return self._invalidation_epoch

    def advance_epoch(self) -> None:
        """Fence out in-flight evaluations: a write happened, so any
        ``put(..., if_epoch=)`` holding an earlier epoch is rejected."""
        with self._lock:
            self._invalidation_epoch += 1

    # -- admission ----------------------------------------------------------

    def put(
        self,
        key: str,
        query_text: str,
        entries: Sequence[Entry],
        footprint: Footprint,
        cost_io: int,
        tag: Optional[str] = None,
        query=None,
        if_epoch: Optional[int] = None,
    ) -> Optional[CachedResult]:
        """Admit a result; evicts minimum-priority residents to make room.
        Results larger than the whole budget are rejected (returns None).
        Passing the parsed ``query`` AST makes the entry eligible for
        in-place patching by the incremental maintainer.  ``if_epoch``
        (the :attr:`invalidation_epoch` captured before the evaluation)
        rejects the admission when any invalidation ran in between -- the
        result may predate a concurrent write and serving it would be a
        silent staleness hole."""
        entry = CachedResult(
            key, query_text, entries, footprint, cost_io, tag, query=query
        )
        with self._lock:
            if if_epoch is not None and if_epoch != self._invalidation_epoch:
                self.stats.rejected += 1
                return None
            if entry.size_bytes > self.byte_budget:
                self.stats.rejected += 1
                return None
            if key in self._entries:
                self._remove(key)
            while self._bytes + entry.size_bytes > self.byte_budget:
                self._evict_one()
            self._entries[key] = entry
            self._bytes += entry.size_bytes
            self._seq += 1
            entry.seq = self._seq
            for root, subtree in footprint.ranges:
                self._scopes.add(entry, root.key(), subtree)
            if entry.superset_key is not None:
                self._supersets.add(entry, entry.superset_key, True)
            self._reprioritise(entry)
            self.stats.insertions += 1
            return entry

    # -- incremental maintenance --------------------------------------------

    def patch(
        self, key: str, low: int, high: int, added: Sequence[Entry]
    ) -> Optional[CachedResult]:
        """Replace rows ``[low, high)`` of a resident result with ``added``
        in place, re-account its bytes by that delta and keep it resident
        if it still fits; returns the patched result, or None if ``key``
        was not resident or the patched result no longer fits."""
        with self._lock:
            # A patch reflects a write: in-flight pre-write evaluations
            # must not overwrite the patched (newer) entry.
            self._invalidation_epoch += 1
            entry = self._entries.get(key)
            if entry is None:
                return None
            rows = entry.entries
            new_entries = rows[:low] + tuple(added) + rows[high:]
            new_bytes = (
                entry.size_bytes - _approx_bytes(rows[low:high]) + _approx_bytes(added)
            )
            if self._bytes - entry.size_bytes + new_bytes > self.byte_budget:
                # Patching must not trigger an eviction storm against
                # innocent residents; a grown result that no longer fits
                # falls back to invalidation.
                self._remove(key)
                self.stats.invalidations += 1
                return None
            self._bytes += new_bytes - entry.size_bytes
            entry.entries = new_entries
            entry.size_bytes = new_bytes
            self._reprioritise(entry)
            self.stats.patched += 1
            if LOG.enabled:
                LOG.debug(
                    "cache.patch", query=entry.query_text,
                    rows=len(new_entries), bytes=new_bytes,
                )
            return entry

    def drop(self, key: str) -> bool:
        """Invalidate one resident by key (the maintainer's precise
        fallback); returns whether it was resident."""
        with self._lock:
            self._invalidation_epoch += 1
            if key not in self._entries:
                return False
            self._remove(key)
            self.stats.invalidations += 1
            return True

    # -- invalidation --------------------------------------------------------

    def invalidate(self, dn, subtree: bool = False) -> int:
        """Evict exactly the entries whose footprint touches the updated
        region (one dn, or its whole subtree for recursive deletes).
        Returns how many were evicted."""
        with self._lock:
            self._invalidation_epoch += 1
            doomed = self.touching(dn, subtree)
            for entry in doomed:
                self._remove(entry.key)
            self.stats.invalidations += len(doomed)
            if doomed and LOG.enabled:
                LOG.debug(
                    "cache.invalidate", dn=str(dn), subtree=subtree,
                    dropped=len(doomed),
                )
            return len(doomed)

    def invalidate_tag(self, tag: str) -> int:
        """Evict every entry carrying ``tag`` (e.g. one origin server)."""
        with self._lock:
            self._invalidation_epoch += 1
            doomed = [e.key for e in self._entries.values() if e.tag == tag]
            for key in doomed:
                self._remove(key)
            self.stats.invalidations += len(doomed)
            if doomed and LOG.enabled:
                LOG.debug("cache.invalidate", tag=tag, dropped=len(doomed))
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            self._invalidation_epoch += 1
            count = len(self._entries)
            self._entries.clear()
            self._scopes, self._supersets = PrefixIndex(), PrefixIndex()
            self._heap = []
            self._bytes = 0
            self.stats.invalidations += count
            return count

    # -- internals ---------------------------------------------------------

    def _reprioritise(self, entry: CachedResult) -> None:
        entry.priority = self._floor + entry.cost_io / max(entry.size_bytes, 1)
        heapq.heappush(self._heap, (entry.priority, entry.key))

    def _evict_one(self) -> None:
        while self._heap:
            priority, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if entry is None or entry.priority != priority:
                continue  # stale heap item (entry refreshed or removed)
            self._remove(key)
            self._floor = priority
            self.stats.evictions += 1
            if LOG.enabled:
                LOG.debug(
                    "cache.evict", query=entry.query_text,
                    priority=round(priority, 6), bytes=entry.size_bytes,
                )
            return
        raise RuntimeError("eviction requested from an empty cache")

    def _remove(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.size_bytes
        for root, subtree in entry.footprint.ranges:
            self._scopes.discard(entry, root.key(), subtree)
        if entry.superset_key is not None:
            self._supersets.discard(entry, entry.superset_key, True)

    def __repr__(self) -> str:
        return "QueryCache(%d entries, %d/%d bytes, %r)" % (
            len(self._entries),
            self._bytes,
            self.byte_budget,
            self.stats,
        )


_residence = attrgetter("seq")


def _approx_bytes(entries: Sequence[Entry]) -> int:
    """A stable, platform-independent byte estimate of a result list (see
    :meth:`Entry.approx_bytes`; each entry is sized once, not per put)."""
    return sum(map(Entry.approx_bytes, entries))
