"""The subtree heat map: load accounting over the reversed-DN keyspace.

The paper clusters a directory by the lexicographic order of *reversed*
dns, so a subtree is a contiguous key range -- which makes "where is the
load?" a question about reversed-DN **prefixes**.  The heat map buckets
every observed operation by ``dn.key()[:depth]`` (the root-first prefix
of the entry's sort key) and keeps, per bucket:

- ``reads`` / ``pages`` -- atomic-leaf evaluations the engine ran under
  that base, and the logical page I/O they cost;
- ``writes`` -- committed mutations (fed from the directory's record
  listeners);
- ``shipped`` -- entries shipped from remote servers for bases in the
  bucket (fed from the federation's per-server transfer path).

Counters are **EWMA-decayed**: every cell's decayed values halve each
:data:`HALF_LIFE_S` seconds of inactivity, so ``hottest(n)`` ranks
*current* load, not lifetime totals (which are kept too, undecayed, for
accounting).
The decay clock is injectable -- under an injected clock the whole map
is deterministic, which the tests and the E26 benchmark rely on.

The map is bounded: at :data:`CAPACITY` cells the coldest cell (smallest
decayed heat) is evicted, so cardinality cannot grow with the keyspace.
All mutation and ranking take one lock; the federation's scatter workers
and the service's search threads update it concurrently.

This is the load signal ROADMAP item 3 (online subtree rebalancing)
will consume: ``hottest(n)`` is directly a shard-split candidate list.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SubtreeHeatMap"]

_FIELDS = ("reads", "writes", "pages", "shipped")

#: How many cells a map holds before it evicts the coldest.
CAPACITY = 512
#: Seconds of inactivity that halve a cell's decayed counters.
HALF_LIFE_S = 300.0


class _Cell:
    __slots__ = (
        "key",
        "label",
        "reads",
        "writes",
        "pages",
        "shipped",
        "reads_total",
        "writes_total",
        "pages_total",
        "shipped_total",
        "last",
        "first_seen",
    )

    def __init__(self, key: Tuple[str, ...], now: float):
        self.key = key
        #: Leaf-first display form (the LDAP spelling of the subtree base).
        self.label = ", ".join(reversed(key)) if key else "(root)"
        self.reads = 0.0
        self.writes = 0.0
        self.pages = 0.0
        self.shipped = 0.0
        self.reads_total = 0
        self.writes_total = 0
        self.pages_total = 0
        self.shipped_total = 0
        self.last = now
        self.first_seen = now

    def decay(self, now: float) -> None:
        elapsed = now - self.last
        if elapsed > 0:
            factor = 0.5 ** (elapsed / HALF_LIFE_S)
            self.reads *= factor
            self.writes *= factor
            self.pages *= factor
            self.shipped *= factor
        self.last = max(self.last, now)

    @property
    def heat(self) -> float:
        """One scalar for ranking/eviction: decayed operations plus their
        decayed page cost (pages dominate for scan-heavy subtrees, which
        is the right bias for a placement signal)."""
        return self.reads + self.writes + self.pages + self.shipped

    def as_dict(self) -> Dict[str, Any]:
        return {
            "subtree": self.label,
            "depth": len(self.key),
            "heat": round(self.heat, 4),
            "reads": round(self.reads, 4),
            "writes": round(self.writes, 4),
            "pages": round(self.pages, 4),
            "shipped": round(self.shipped, 4),
            "reads_total": self.reads_total,
            "writes_total": self.writes_total,
            "pages_total": self.pages_total,
            "shipped_total": self.shipped_total,
        }


class SubtreeHeatMap:
    """EWMA-decayed per-subtree load counters at a fixed prefix depth."""

    def __init__(self, depth: int = 2, clock: Callable[[], float] = time.time):
        if depth < 1:
            raise ValueError("depth must be positive (0 disables the map)")
        self.depth = depth
        self._clock = clock
        self._cells: Dict[Tuple[str, ...], _Cell] = {}
        self._lock = threading.Lock()
        #: Cells pushed out by the coldest-evicted bound.
        self.evicted = 0

    # -- recording ---------------------------------------------------------

    def _cell_locked(self, dn, now: float) -> _Cell:
        key = dn.key()[: self.depth]
        cell = self._cells.get(key)
        if cell is None:
            if len(self._cells) >= CAPACITY:
                self._evict_locked(now)
            cell = _Cell(key, now)
            self._cells[key] = cell
        return cell

    def _evict_locked(self, now: float) -> None:
        coldest = None
        for cell in self._cells.values():
            cell.decay(now)
            if coldest is None or cell.heat < coldest.heat:
                coldest = cell
        if coldest is not None:
            del self._cells[coldest.key]
            self.evicted += 1

    def record_read(self, base, pages: int = 0, amount: int = 1) -> None:
        """One evaluation under ``base`` (a :class:`~repro.model.dn.DN`)
        that cost ``pages`` logical page transfers."""
        now = self._clock()
        with self._lock:
            cell = self._cell_locked(base, now)
            cell.decay(now)
            cell.reads += amount
            cell.pages += pages
            cell.reads_total += amount
            cell.pages_total += pages

    def record_write(self, dn, amount: int = 1) -> None:
        """One committed mutation at ``dn``."""
        now = self._clock()
        with self._lock:
            cell = self._cell_locked(dn, now)
            cell.decay(now)
            cell.writes += amount
            cell.writes_total += amount

    def record_shipped(self, base, entries: int) -> None:
        """``entries`` entries shipped from a remote server for a leaf
        based at ``base``."""
        now = self._clock()
        with self._lock:
            cell = self._cell_locked(base, now)
            cell.decay(now)
            cell.shipped += entries
            cell.shipped_total += entries

    # -- ranking -----------------------------------------------------------

    def hottest(self, n: int = 5, by: str = "heat") -> List[Dict[str, Any]]:
        """The ``n`` hottest subtrees by the decayed ``by`` field (one of
        ``heat``, ``reads``, ``writes``, ``pages``, ``shipped``),
        decayed to now, hottest first."""
        if by != "heat" and by not in _FIELDS:
            raise ValueError(
                "by must be 'heat' or one of %s, got %r" % (_FIELDS, by)
            )
        now = self._clock()
        with self._lock:
            for cell in self._cells.values():
                cell.decay(now)
            cells = sorted(
                self._cells.values(),
                key=lambda c: (getattr(c, by), c.label),
                reverse=True,
            )[: n if n else len(self._cells)]
            return [cell.as_dict() for cell in cells]

    def snapshot(self, n: int = 0, by: str = "heat") -> Dict[str, Any]:
        """JSON-ready view: map parameters plus the hottest cells (all
        cells when ``n`` is 0)."""
        return {
            "depth": self.depth,
            "capacity": CAPACITY,
            "half_life_s": HALF_LIFE_S,
            "cells": len(self),
            "evicted": self.evicted,
            "by": by,
            "hottest": self.hottest(n, by=by),
        }

    def reset(self) -> None:
        with self._lock:
            self._cells.clear()
            self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def __repr__(self) -> str:
        return "SubtreeHeatMap(depth=%d, %d cells)" % (self.depth, len(self))
