"""The query digest table: pg_stat_statements for the directory.

Process-wide counters say how the *service* is doing; the digest table
says which *query shapes* are responsible.  Every finished search folds
into one :class:`QueryDigest` row keyed by the semantic cache's
ACD-normal-form fingerprint (:func:`repro.cache.keys.fingerprint`), so
two spellings of the same query -- reordered set operands, collapsed
duplicates -- aggregate into one row, exactly like
``pg_stat_statements`` collapses statements by normalized query id.

Per row: call count, how the calls were served (engine / cache hit /
superset hit / federation), latency and logical-page aggregates, result
sizes, and the planner's Q-error (max and mean) -- the row-level view of
the ``repro_planner_qerror`` histogram.

The table is **bounded** (``capacity`` rows): when a new fingerprint
arrives at a full table, the row with the fewest calls (ties: least
recently seen) is evicted and counted, so a scan of one-off shapes
cannot push the dominant workload out.  All operations take the table
lock; rows are plain slotted objects, cheap to update on the search
path.

The clock is injectable (``first_seen``/``last_seen`` stamps), which
keeps tests and the benchmark harness deterministic.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .event import SearchEvent

__all__ = ["QueryDigest", "QueryDigestTable"]

#: How a search was served, as recorded by the service.
VIAS = ("engine", "cache", "superset", "federation")


class QueryDigest:
    """Aggregates for one normalized query shape."""

    __slots__ = (
        "key",
        "text",
        "calls",
        "cache_hits",
        "superset_hits",
        "federated",
        "elapsed_total",
        "elapsed_max",
        "pages_total",
        "entries_total",
        "entries_max",
        "qerror_sum",
        "qerror_max",
        "qerror_count",
        "first_seen",
        "last_seen",
    )

    def __init__(self, key: str, text: str, now: float):
        self.key = key
        #: One representative concrete spelling (first seen wins).
        self.text = text
        self.calls = 0
        self.cache_hits = 0
        self.superset_hits = 0
        self.federated = 0
        self.elapsed_total = 0.0
        self.elapsed_max = 0.0
        self.pages_total = 0
        self.entries_total = 0
        self.entries_max = 0
        self.qerror_sum = 0.0
        self.qerror_max = 0.0
        self.qerror_count = 0
        self.first_seen = now
        self.last_seen = now

    def observe(
        self,
        elapsed_s: float,
        pages: int,
        entries: int,
        via: str,
        qerror: Optional[float],
        now: float,
    ) -> None:
        self.calls += 1
        if via == "cache":
            self.cache_hits += 1
        elif via == "superset":
            self.superset_hits += 1
        elif via == "federation":
            self.federated += 1
        self.elapsed_total += elapsed_s
        if elapsed_s > self.elapsed_max:
            self.elapsed_max = elapsed_s
        self.pages_total += pages
        self.entries_total += entries
        if entries > self.entries_max:
            self.entries_max = entries
        if qerror is not None:
            self.qerror_sum += qerror
            self.qerror_count += 1
            if qerror > self.qerror_max:
                self.qerror_max = qerror
        self.last_seen = now

    # -- derived -----------------------------------------------------------

    @property
    def hits(self) -> int:
        """Calls served without evaluating (exact + superset)."""
        return self.cache_hits + self.superset_hits

    @property
    def mean_elapsed(self) -> float:
        return self.elapsed_total / self.calls if self.calls else 0.0

    @property
    def mean_pages(self) -> float:
        return self.pages_total / self.calls if self.calls else 0.0

    @property
    def mean_entries(self) -> float:
        return self.entries_total / self.calls if self.calls else 0.0

    @property
    def mean_qerror(self) -> Optional[float]:
        if not self.qerror_count:
            return None
        return self.qerror_sum / self.qerror_count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "query": self.text,
            "calls": self.calls,
            "cache_hits": self.cache_hits,
            "superset_hits": self.superset_hits,
            "federated": self.federated,
            "hit_rate": round(self.hits / self.calls, 4) if self.calls else 0.0,
            "elapsed_total_s": round(self.elapsed_total, 6),
            "elapsed_mean_s": round(self.mean_elapsed, 6),
            "elapsed_max_s": round(self.elapsed_max, 6),
            "pages_total": self.pages_total,
            "pages_mean": round(self.mean_pages, 2),
            "entries_mean": round(self.mean_entries, 2),
            "entries_max": self.entries_max,
            "qerror_mean": (
                round(self.mean_qerror, 3) if self.qerror_count else None
            ),
            "qerror_max": round(self.qerror_max, 3) if self.qerror_count else None,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }

    def __repr__(self) -> str:
        return "QueryDigest(%r, calls=%d)" % (self.text, self.calls)


#: ``top(by=...)`` sort keys (all descending).
_ORDERINGS: Dict[str, Callable[[QueryDigest], Any]] = {
    "calls": lambda d: (d.calls, d.elapsed_total),
    "time": lambda d: (d.elapsed_total, d.calls),
    "mean_time": lambda d: (d.mean_elapsed, d.calls),
    "pages": lambda d: (d.pages_total, d.calls),
    "qerror": lambda d: (d.qerror_max, d.calls),
}


class QueryDigestTable:
    """A bounded, thread-safe table of per-fingerprint digests."""

    def __init__(self, capacity: int = 256, clock: Callable[[], float] = time.time):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._clock = clock
        self._rows: Dict[str, QueryDigest] = {}
        self._lock = threading.Lock()
        #: Lifetime observations, including ones folded into since-evicted
        #: rows (``sum(row.calls) <= observed`` once anything was evicted).
        self.observed = 0
        #: Rows pushed out by the fewest-calls bound.
        self.evicted = 0

    def observe(self, event: SearchEvent) -> Optional[QueryDigest]:
        """Fold one finished search into the row for ``event.key``
        (creating and possibly evicting to make room).  Returns the
        updated row -- or None for a search that evaluated nothing
        (``via`` None: a protocol error or budget breach has no cost to
        attribute to a shape).  The query text is only read when the row
        is new, so a search whose row exists is never rendered for it."""
        via = event.via
        if via is None:
            return None
        if via not in VIAS:
            raise ValueError("via must be one of %s, got %r" % (VIAS, via))
        key = event.key
        now = self._clock()
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                if len(self._rows) >= self.capacity:
                    self._evict_locked()
                row = QueryDigest(key, event.query_text, now)
                self._rows[key] = row
            row.observe(
                event.elapsed, event.pages, event.rows, via, event.qerror, now
            )
            self.observed += 1
            return row

    def _evict_locked(self) -> None:
        victim = min(self._rows.values(), key=lambda d: (d.calls, d.last_seen))
        del self._rows[victim.key]
        self.evicted += 1

    def get(self, key: str) -> Optional[QueryDigest]:
        with self._lock:
            return self._rows.get(key)

    def top(self, n: int = 10, by: str = "calls") -> List[QueryDigest]:
        """The ``n`` heaviest rows by ``by`` (one of ``calls``, ``time``,
        ``mean_time``, ``pages``, ``qerror``), descending."""
        try:
            order = _ORDERINGS[by]
        except KeyError:
            raise ValueError(
                "by must be one of %s, got %r" % (sorted(_ORDERINGS), by)
            )
        with self._lock:
            rows = list(self._rows.values())
        rows.sort(key=order, reverse=True)
        return rows[:n]

    def snapshot(self, n: int = 0, by: str = "calls") -> Dict[str, Any]:
        """JSON-ready view: table counters plus the top rows (all rows
        when ``n`` is 0)."""
        with self._lock:
            size = len(self._rows)
        rows = self.top(n or size, by=by)
        return {
            "rows": size,
            "capacity": self.capacity,
            "observed": self.observed,
            "evicted": self.evicted,
            "by": by,
            "top": [row.as_dict() for row in rows],
        }

    def reset(self) -> None:
        with self._lock:
            self._rows.clear()
            self.observed = 0
            self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __repr__(self) -> str:
        return "QueryDigestTable(%d/%d rows, observed=%d)" % (
            len(self),
            self.capacity,
            self.observed,
        )
