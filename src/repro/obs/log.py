"""Structured logging: one process event log, one JSON object per line.

Metrics aggregate and traces dissect; the event log *narrates*: retries,
breaker transitions, degradations, cache evictions, budget breaches and
every served search, each as one machine-parseable JSON line.  The schema
is deliberately tiny:

.. code-block:: json

    {"ts": 1700000000.123456, "level": "warning", "event": "fed.retry",
     "server": "server2", "attempt": 2, "code": "dropped"}

``ts`` (unix seconds), ``level`` and ``event`` are always present; every
other field is event-specific, and a search's lines carry its
``trace_id`` when it ran under a live tracer, so a log line can be
joined to its span tree (and a slow-query record to both).

Every layer writes to the one process log, :data:`LOG`, the way every
layer reports into the one metrics registry.  It is **off by default**
and never rebound: :func:`configure` turns it on, onto a stream at a
least severity (``python -m repro serve-admin --log`` does), or off
again.  Emitters guard field construction with ``if LOG.enabled:``, so
the disabled path costs one attribute read.

Writes are thread-safe: each line is written with a single ``write``
call under the log's lock, so concurrent workers never interleave
partial lines.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Optional, TextIO

__all__ = ["EventLogger", "LEVELS", "LOG", "configure"]

#: Severity order (syslog-ish subset; higher is more severe).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: The threshold of a log that is off: above every level.
_OFF = max(LEVELS.values()) + 1


class EventLogger:
    """A JSON-lines event log over a text stream; off while it has none."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Whether events are written at all -- the guard emitters read.
        self.enabled = False
        self.stream: Optional[TextIO] = None
        self.min_level = "info"
        self._threshold = _OFF

    def configure(self, stream: Optional[TextIO], min_level: str = "info") -> None:
        """Write events at ``min_level`` and above to ``stream`` from now
        on, or nothing when ``stream`` is None."""
        if min_level not in LEVELS:
            raise ValueError("min_level must be one of %s" % sorted(LEVELS))
        with self._lock:
            self.stream = stream
            self.min_level = min_level
            self._threshold = LEVELS[min_level] if stream is not None else _OFF
            self.enabled = stream is not None

    def log(self, level: str, event: str, **fields: Any) -> None:
        """Emit one event; ``None``-valued fields are elided so call
        sites can pass optional context unconditionally."""
        if LEVELS[level] < self._threshold:
            return
        payload: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
        }
        for key, value in fields.items():
            if value is not None:
                payload[key] = value
        line = json.dumps(payload, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self.stream is not None:
                self.stream.write(line)

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)

    def __repr__(self) -> str:
        if not self.enabled:
            return "EventLogger(off)"
        return "EventLogger(min_level=%r)" % self.min_level


#: The one process event log.
LOG = EventLogger()

#: Turn the process log on (``configure(stream, min_level)``) or off
#: (``configure(None)``).
configure = LOG.configure
