"""A simulated block device with a buffer pool and exact I/O accounting.

The paper states every complexity result in the external-memory (I/O)
model: the unit of cost is the transfer of one disk page holding ``B``
directory entries (``B`` is the *blocking factor*), and algorithms must run
in constant main memory.  This module makes that model executable:

- :class:`Pager` is the "disk": a map from page id to a list of at most
  ``page_size`` records, fronted by a bounded LRU buffer pool.
- Every page fault counts one read; every eviction of a dirty page (and the
  final flush) counts one write.  Buffer hits are free, exactly as in the
  model.
- The buffer pool size bounds main memory, so the constant-memory claims
  (Theorems 8.3/8.4) can be checked by running with a deliberately tiny
  pool and observing that nothing breaks and I/O stays linear.

Records are arbitrary Python objects; the simulation measures *page
transfers*, not bytes, which is what the theorems are about.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List

from ..obs.stats import StatCounters

__all__ = ["IOStats", "Pager", "PagerError"]


class PagerError(RuntimeError):
    """Raised on invalid page operations (bad id, oversized page, ...)."""


class IOStats(StatCounters):
    """Counters of page transfers.

    ``reads``/``writes`` are transfers between "disk" and the buffer pool.
    ``logical_reads``/``logical_writes`` count page requests regardless of
    buffer hits, so hit rates can be derived.

    ``snapshot()``/``since()``/``delta()``/``as_dict()`` come from the
    shared :class:`~repro.obs.stats.StatCounters` protocol; bracketing a
    phase with snapshot-then-since is how every layer (benchmarks, the
    tracer, EXPLAIN ``--analyze``) attributes page transfers to it.
    """

    __slots__ = ("reads", "writes", "logical_reads", "logical_writes", "allocated")

    def __init__(
        self,
        reads: int = 0,
        writes: int = 0,
        logical_reads: int = 0,
        logical_writes: int = 0,
        allocated: int = 0,
    ):
        self.reads = reads
        self.writes = writes
        self.logical_reads = logical_reads
        self.logical_writes = logical_writes
        self.allocated = allocated

    @property
    def total(self) -> int:
        """Total physical page transfers (the model's cost)."""
        return self.reads + self.writes

    @property
    def logical_total(self) -> int:
        """Total page requests regardless of buffer hits (the model-level
        cost benchmarks track)."""
        return self.logical_reads + self.logical_writes

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of logical reads served without a disk transfer."""
        if not self.logical_reads:
            return 0.0
        return 1.0 - self.reads / self.logical_reads

    def __repr__(self) -> str:
        return "IOStats(reads=%d, writes=%d, total=%d)" % (
            self.reads,
            self.writes,
            self.total,
        )


class Pager:
    """The simulated disk plus buffer pool.

    :param page_size: records per page (the blocking factor ``B``).
    :param buffer_pages: buffer pool capacity in pages (main memory).

    Thread safety: all page operations (and the stats increments they
    make) run under one reentrant :attr:`lock`, and the lock is attached
    to :attr:`stats` so bracketed snapshots are consistent.  A single
    pager therefore survives the federation's worker pool; the external-
    memory *model* is unchanged -- costs are counted identically, only
    the interleaving of concurrent operations is serialised.
    """

    def __init__(self, page_size: int = 16, buffer_pages: int = 8):
        if page_size < 1:
            raise PagerError("page_size must be >= 1")
        if buffer_pages < 1:
            raise PagerError("buffer_pages must be >= 1")
        self.page_size = page_size
        self.buffer_pages = buffer_pages
        self.lock = threading.RLock()
        self.stats = IOStats()
        self.stats.attach_lock(self.lock)
        self._disk: Dict[int, List[Any]] = {}
        # page id -> (records, dirty); OrderedDict as LRU (front = oldest).
        self._pool: "OrderedDict[int, List[Any]]" = OrderedDict()
        self._dirty: Dict[int, bool] = {}
        self._next_page = 0
        #: Ids allocated and not yet freed.  Ids are never reused, so this
        #: both detects use-after-free and stays bounded by what is
        #: resident (a set of *freed* ids would grow for the pager's life).
        self._live: set = set()

    # -- allocation ---------------------------------------------------------

    def allocate(self) -> int:
        """Allocate a fresh, empty page; returns its id.

        Allocation itself transfers nothing; the page materialises on first
        write-back."""
        with self.lock:
            page_id = self._next_page
            self._next_page += 1
            self.stats.allocated += 1
            self._live.add(page_id)
            self._install(page_id, [], dirty=True)
            return page_id

    def free(self, page_id: int) -> None:
        """Release a page.  Freeing discards buffered state without a
        write-back (the data is dead)."""
        with self.lock:
            self._check_id(page_id)
            self._pool.pop(page_id, None)
            self._dirty.pop(page_id, None)
            self._disk.pop(page_id, None)
            self._live.remove(page_id)

    # -- page access ----------------------------------------------------------

    def read(self, page_id: int) -> List[Any]:
        """Fetch a page's records (through the buffer pool).

        The returned list must be treated as read-only; use :meth:`write`
        to change a page."""
        with self.lock:
            self._check_id(page_id)
            self.stats.logical_reads += 1
            if page_id in self._pool:
                self._pool.move_to_end(page_id)
                return self._pool[page_id]
            if page_id not in self._disk:
                raise PagerError("page %d was never written" % page_id)
            self.stats.reads += 1
            records = list(self._disk[page_id])
            self._install(page_id, records, dirty=False)
            return records

    def charge_reads(self, pages: int) -> None:
        """Count ``pages`` logical reads of memory-resident data that is
        not laid out on this device (the pending-update overlay a scan
        merges in): buffer hits, so no transfer -- but the model-level
        cost of a read stays complete."""
        with self.lock:
            self.stats.logical_reads += pages

    def write(self, page_id: int, records: List[Any]) -> None:
        """Replace a page's records (write-back is deferred to eviction or
        flush)."""
        with self.lock:
            self._check_id(page_id)
            if len(records) > self.page_size:
                raise PagerError(
                    "page overflow: %d records > page_size %d"
                    % (len(records), self.page_size)
                )
            self.stats.logical_writes += 1
            self._install(page_id, list(records), dirty=True)

    def append_page(self, records: List[Any]) -> int:
        """Allocate a page and fill it in one step (the common bulk path)."""
        with self.lock:
            page_id = self.allocate()
            self.write(page_id, records)
            return page_id

    def flush(self) -> None:
        """Write back every dirty buffered page."""
        with self.lock:
            for page_id in list(self._pool):
                if self._dirty.get(page_id):
                    self._write_back(page_id)
                    self._dirty[page_id] = False

    # -- internals ---------------------------------------------------------

    def _install(self, page_id: int, records: List[Any], dirty: bool) -> None:
        if page_id in self._pool:
            self._pool.move_to_end(page_id)
            self._pool[page_id] = records
            self._dirty[page_id] = self._dirty.get(page_id, False) or dirty
            return
        while len(self._pool) >= self.buffer_pages:
            victim, victim_records = self._pool.popitem(last=False)
            if self._dirty.pop(victim, False):
                self.stats.writes += 1
                self._disk[victim] = victim_records
        self._pool[page_id] = records
        self._dirty[page_id] = dirty

    def _write_back(self, page_id: int) -> None:
        self.stats.writes += 1
        self._disk[page_id] = list(self._pool[page_id])

    def _check_id(self, page_id: int) -> None:
        if page_id not in self._live:
            if 0 <= page_id < self._next_page:
                raise PagerError("use after free of page %d" % page_id)
            raise PagerError("unknown page id %d" % page_id)

    # -- introspection ---------------------------------------------------------

    @property
    def pages_in_pool(self) -> int:
        return len(self._pool)

    @property
    def pages_on_disk(self) -> int:
        return len(self._disk)

    @property
    def live_pages(self) -> int:
        """Pages allocated and not yet freed.  The leak check: after any
        query -- including one cancelled mid-evaluation by a
        :class:`~repro.obs.budget.BudgetExceeded` -- this must return to
        its pre-query value."""
        with self.lock:
            return len(self._live)

    def __repr__(self) -> str:
        return "Pager(B=%d, pool=%d/%d, %r)" % (
            self.page_size,
            len(self._pool),
            self.buffer_pages,
            self.stats,
        )
