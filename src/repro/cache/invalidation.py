"""Cache maintenance from the change-record stream: patch, else evict.

The :class:`~repro.storage.maintenance.UpdatableDirectory` publishes every
committed mutation to its record listeners as one
:class:`~repro.txn.records.ChangeRecord` (``subtree`` is True only for
recursive deletes: the updated region is the dn's whole subtree).
:class:`IncrementalCacheMaintainer` is the one consumer that keeps a
:class:`~repro.cache.store.QueryCache` current, and this module is the one
place that decides what happens to a cached result when a write touches
its footprint:

- membership is locally decidable -- an L0 query (atomic + boolean)
  admits or rejects one entry by re-evaluating ``scope_admits`` and the
  filter against the record's post-image -- so the result is *patched* in
  place: an add inserts one row (at its reverse-dn position, preserving
  run order), a delete removes rows, a modify replaces one.  The rows are
  sorted by key, so the touched range is found by bisection: no
  re-evaluation, no eviction, no walk over the rows;
- anything else (hierarchy, aggregates, embedded references, a resident
  admitted without its query AST, a patched result that outgrows the byte
  budget) is *evicted* -- exactly the residents whose footprint
  intersects the updated region, which the cache's prefix index names
  (:meth:`~repro.cache.store.QueryCache.touching`): no other is visited.

Because maintenance happens at *log-append* time -- not at compaction --
a cached result that survives a burst of updates is still valid after the
log folds into a fresh master run: compaction changes the physical image,
never the logical content the log already described.  Nothing is flushed
wholesale.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from ..model.dn import subtree_upper_bound
from ..model.entry import Entry
from ..obs.metrics import get_registry
from ..query.ast import And, AtomicQuery, Diff, Or, Query
from ..storage.maintenance import UpdatableDirectory
from ..storage.store import lower_bound
from ..txn.records import ChangeRecord
from .store import CachedResult, QueryCache

__all__ = ["IncrementalCacheMaintainer"]


class IncrementalCacheMaintainer:
    """Applies change records to cached sublists as row-level deltas.

    The decision rule, per touched resident:

    1. no parsed query attached, the query is not L0, or the record
       arrived behind a newer one -> **evict** (membership cannot be
       re-decided from this one entry);
    2. the delta provably leaves the result unchanged (an add/modify the
       query rejects and no resident row removed) -> **keep** untouched;
    3. otherwise -> **patch**: apply the one-row delta in place
       (falling back to eviction if the patched result no longer fits).
    """

    def __init__(
        self,
        directory: UpdatableDirectory,
        cache: QueryCache,
    ):
        self.directory = directory
        self.cache = cache
        self.schema = directory.schema
        self._m_actions = get_registry().counter(
            "repro_cache_maintainer_actions_total",
            "Incremental cache maintenance outcomes per touched resident",
            labelnames=("action",),
        )
        self._lock = threading.Lock()
        self._applied_lsn = 0
        directory.add_record_listener(self._on_record)

    def detach(self) -> None:
        """Stop receiving records (idempotent)."""
        self.directory.remove_record_listener(self._on_record)

    # -- record application --------------------------------------------------

    def _on_record(self, record: ChangeRecord) -> None:
        # Writers notify outside the directory's write lock, so records
        # arrive concurrently and possibly out of lsn order.  They are
        # applied one at a time (a patch is a read-modify-write of the
        # resident), and a record older than one already applied cannot
        # be ordered against it: what it touches is evicted, not patched.
        with self._lock:
            # Every write fences the cache, whether or not a resident is
            # touched: a search that pinned its snapshot before this
            # record must not be admitted after it (``QueryCache.put``).
            self.cache.advance_epoch()
            late = record.lsn < self._applied_lsn
            self._applied_lsn = max(self._applied_lsn, record.lsn)
            for cached in self.cache.touching(record.dn, record.subtree):
                action, splice = (
                    ("evict", None) if late else self._delta(cached, record)
                )
                if action == "evict":
                    self.cache.drop(cached.key)
                    self._m_actions.inc(action="evicted")
                elif action == "keep":
                    self._m_actions.inc(action="kept")
                elif self.cache.patch(cached.key, *splice) is not None:
                    self._m_actions.inc(action="patched")
                else:
                    self._m_actions.inc(action="evicted")

    def _delta(
        self, cached: CachedResult, record: ChangeRecord
    ) -> Tuple[str, Optional[Tuple[int, int, Tuple[Entry, ...]]]]:
        """The action for one touched resident; a patch comes with its
        splice ``(low, high, added)``: rows ``[low, high)`` -- the record's
        dn, or its subtree -- give way to ``added``."""
        query = cached.query
        if query is None or not _locally_decidable(query):
            return ("evict", None)
        rows = cached.entries
        key = record.dn.key()
        low = lower_bound(rows, key)
        if record.subtree:
            high = lower_bound(rows, subtree_upper_bound(key), low)
        else:
            high = low + (low < len(rows) and rows[low]._dn._key == key)
        # add / modify: the record carries the post-image.
        if record.kind != "delete" and _admits(query, record.entry, self.schema):
            return ("patch", (low, high, (record.entry,)))
        if low == high:
            return ("keep", None)  # nothing resident removed, nothing admitted
        return ("patch", (low, high, ()))

    def __repr__(self) -> str:
        return "IncrementalCacheMaintainer(%r -> %r)" % (
            self.directory,
            self.cache,
        )


def _locally_decidable(query: Query) -> bool:
    """True when per-entry membership is decidable without touching the
    store: every node is atomic or boolean (the L0 fragment)."""
    return all(
        isinstance(node, (AtomicQuery, And, Or, Diff)) for node in query.walk()
    )


def _admits(query: Query, entry: Entry, schema) -> bool:
    """Whether ``entry`` belongs to the result of an L0 ``query``
    (membership distributes over the boolean operators)."""
    from ..engine.atomic import scope_admits

    if isinstance(query, AtomicQuery):
        return scope_admits(query.base, query.scope, entry.dn) and query.filter.matches(
            entry, schema
        )
    if isinstance(query, And):
        return _admits(query.left, entry, schema) and _admits(query.right, entry, schema)
    if isinstance(query, Or):
        return _admits(query.left, entry, schema) or _admits(query.right, entry, schema)
    if isinstance(query, Diff):
        return _admits(query.left, entry, schema) and not _admits(
            query.right, entry, schema
        )
    raise TypeError("not an L0 query node: %r" % (query,))
