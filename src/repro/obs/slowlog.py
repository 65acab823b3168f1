"""The one ring of retained searches: slow, degraded or budget-breached.

Aggregates (the latency histogram) tell you the tail exists; this ring
tells you *which queries* are in it.  :class:`DirectoryService` offers
every finished search's :class:`~repro.obs.event.SearchEvent` here; the
ring marks it ``slow`` past the threshold and keeps it when
``event.reasons`` is non-empty (newest last, the ring drops the oldest).
It retains the event itself -- query text, latency, page I/O, cache
disposition, degradation notes, trace id, Q-error and span tree, and no
result entries.  ``/slowlog`` reads its slow subset
(:meth:`SlowQueryLog.records`) and ``/traces`` every retained event
(:meth:`SlowQueryLog.traces`), so each slow-log line has its joinable
evidence.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .event import SearchEvent

__all__ = ["SlowQueryLog"]

#: How many retained searches the ring holds (the newest).
CAPACITY = 64


class SlowQueryLog:
    """Retain interesting searches, judging ``slow`` against
    ``threshold_seconds`` (None disables the ring).

    Safe under concurrent recording: the ring append and the counters
    move atomically, so ``total >= len(log)`` (with equality until the
    ring wraps) and ``offered >= kept`` hold under any interleaving.
    """

    def __init__(self, threshold_seconds: Optional[float] = None):
        self.threshold_seconds = threshold_seconds
        self._lock = threading.Lock()
        self._ring: Deque[SearchEvent] = deque(maxlen=CAPACITY)
        #: Searches offered / retained since construction.
        self.offered = 0
        self.kept = 0
        #: Total over-threshold searches ever seen (the ring may have
        #: dropped some).
        self.total = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_seconds is not None

    def record(self, event: SearchEvent) -> Optional[SearchEvent]:
        """Mark the search ``slow`` if it crossed the threshold and keep
        it if it is interesting; returns the event when kept (None when
        clean or disabled)."""
        if self.threshold_seconds is None:
            return None
        if event.elapsed >= self.threshold_seconds:
            event.slow = True
        with self._lock:
            self.offered += 1
            if not event.reasons:
                return None
            self._ring.append(event)
            self.kept += 1
            if event.slow:
                self.total += 1
        return event

    def records(self) -> List[SearchEvent]:
        """The retained slow events, oldest first."""
        with self._lock:
            return [event for event in self._ring if event.slow]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [record.as_dict() for record in self.records()]

    def traces(self) -> List[Dict[str, Any]]:
        """Every retained event as a sample, oldest first: query text,
        latency, reasons and, when the service traces, the span tree."""
        with self._lock:
            events = list(self._ring)
        return [
            {
                "trace_id": event.trace_id,
                "query": event.query_text,
                "elapsed_s": event.elapsed,
                "reasons": event.reasons,
                "spans": event.root.as_dict() if event.root is not None else None,
            }
            for event in events
        ]

    def __len__(self) -> int:
        return len(self.records())

    def __iter__(self):
        return iter(self.records())

    def __repr__(self) -> str:
        return "SlowQueryLog(threshold=%s, %d retained, %d total)" % (
            self.threshold_seconds,
            len(self._ring),
            self.total,
        )
