"""The slow-query log: a bounded ring of searches that crossed a latency
threshold.

Aggregates (the latency histogram) tell you the tail exists; the slow log
tells you *which queries* are in it.  :class:`DirectoryService` offers
every finished search's :class:`~repro.obs.event.SearchEvent` here; the
ones past the threshold are marked ``slow`` and kept (newest last, the
ring drops the oldest).  The ring retains the event itself -- query text,
latency, page I/O, cache disposition, degradation notes, trace id and
Q-error, and no result entries -- enough to re-run the offender under
EXPLAIN ``--analyze``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .event import SearchEvent

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Record searches slower than ``threshold_seconds`` (None disables).

    Safe under concurrent recording: the ring append and the ``total``
    increment happen atomically, so the invariant ``total >= len(log)``
    (with equality until the ring wraps) holds under any interleaving.
    """

    def __init__(self, threshold_seconds: Optional[float] = None, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.threshold_seconds = threshold_seconds
        self._lock = threading.Lock()
        self._records: Deque[SearchEvent] = deque(maxlen=capacity)
        #: Total over-threshold searches ever seen (the ring may have
        #: dropped some).
        self.total = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_seconds is not None

    def record(self, event: SearchEvent) -> Optional[SearchEvent]:
        """Keep the search if it crossed the threshold, marking it
        ``slow``; returns the event (or None when under threshold /
        disabled)."""
        if self.threshold_seconds is None or event.elapsed < self.threshold_seconds:
            return None
        event.slow = True
        with self._lock:
            self._records.append(event)
            self.total += 1
        return event

    def records(self) -> List[SearchEvent]:
        """The retained events, oldest first."""
        with self._lock:
            return list(self._records)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [record.as_dict() for record in self.records()]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self):
        return iter(self.records())

    def __repr__(self) -> str:
        return "SlowQueryLog(threshold=%s, %d retained, %d total)" % (
            self.threshold_seconds,
            len(self._records),
            self.total,
        )
