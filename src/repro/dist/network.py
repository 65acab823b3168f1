"""A simulated network between directory servers.

Section 8.3's distributed evaluation claim is about *where* work happens
and *what* gets shipped; this network makes both observable: every message
between servers is counted, and result shipments also count the number of
entries carried.

Thread-safety: the coordinator's parallel scatter (see
:mod:`repro.exec`) sends from several worker threads at once, so the
counters are guarded by one reentrant lock (reentrant because a subclass
may extend :meth:`send` and call back into it, as the test suite's fault
injector does).  ``wire_latency_s`` optionally adds
a *real* ``time.sleep`` per message -- slept outside the lock so
concurrent sends overlap their waits, which is exactly the wall-clock
effect the parallel benchmark measures.  It defaults to 0.0: the
simulated model and its deterministic counters are unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

__all__ = ["SimulatedNetwork"]


class SimulatedNetwork:
    """Message and entry counters."""

    def __init__(self, wire_latency_s: float = 0.0):
        if wire_latency_s < 0:
            raise ValueError("wire_latency_s must be non-negative")
        self._lock = threading.RLock()
        self.messages = 0
        self.entries_shipped = 0
        #: Real seconds slept per delivered message (0.0 = purely
        #: simulated, no wall-clock cost).
        self.wire_latency_s = wire_latency_s

    def send(
        self,
        source: str,
        destination: str,
        kind: str,
        entry_count: int = 0,
        trace_id: Optional[str] = None,
    ) -> None:
        """Record one message; ``entry_count`` is the number of directory
        entries in its payload (0 for pure requests).  ``trace_id`` is the
        sending span's trace, which the message carries (the counters
        ignore it)."""
        with self._lock:
            self.messages += 1
            self.entries_shipped += entry_count
        if self.wire_latency_s > 0:
            time.sleep(self.wire_latency_s)

    def reset(self) -> None:
        with self._lock:
            self.messages = 0
            self.entries_shipped = 0

    def __repr__(self) -> str:
        return "SimulatedNetwork(messages=%d, entries_shipped=%d)" % (
            self.messages,
            self.entries_shipped,
        )
