"""The background maintenance agent: a request queue with one worker.

Compaction folds the pending overlay into a fresh master run -- useful
work, but the seed ran it *synchronously inside the unlucky writer's
update*, so one add in a thousand paid the whole merge.  Here maintenance
is requested, not performed: callers :meth:`~MaintenanceAgent.submit`
named requests onto a queue and a single daemon thread drains it, in the
request-queue style of agent frameworks (one agent, one queue, one
execution loop; requests are idempotent descriptions of work, not
closures over caller state).

Properties the write path relies on:

- **dedup**: a request kind marked ``dedupe`` is dropped while an equal
  kind is already queued or executing -- a burst of writers asks for one
  compaction, not a hundred;
- **isolation**: a failing request is counted and logged, never re-raised
  into the writer that happened to submit it;
- **drainability**: :meth:`drain` blocks until the queue is empty and the
  worker is idle, so tests (and checkpoints) can force quiescence.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from ..obs.log import LOG
from ..obs.metrics import get_registry
from ..obs.trace import NULL_TRACER

__all__ = ["MaintenanceAgent"]


class _Request:
    __slots__ = ("kind", "action", "parent")

    def __init__(self, kind: str, action: Callable[[], None], parent=None):
        self.kind = kind
        self.action = action
        #: The submitter's current span (:attr:`Tracer.current`), adopted
        #: by the worker so background spans join the foreground trace.
        self.parent = parent


class MaintenanceAgent:
    """One worker thread executing named maintenance requests in order."""

    def __init__(self, tracer=None):
        #: Span tracer.  Each executed request runs under a
        #: ``maintenance.<kind>`` span that adopts the *submitter's* current
        #: span, so an agent-triggered compaction carries the same
        #: trace id as the write that requested it.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue()
        self._lock = threading.Lock()
        #: Kinds queued-or-running with dedupe, to absorb request bursts.
        self._inflight: set = set()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        #: Requests whose action raised (counted, logged, not re-raised).
        self.failures = 0
        registry = get_registry()
        self._m_requests = registry.counter(
            "repro_maintenance_requests_total",
            "Maintenance requests accepted by the agent",
            labelnames=("kind",),
        )
        self._m_deduped = registry.counter(
            "repro_maintenance_deduped_total",
            "Maintenance requests dropped because an equal one was pending",
            labelnames=("kind",),
        )
        self._m_failures = registry.counter(
            "repro_maintenance_failures_total",
            "Maintenance requests whose action raised",
            labelnames=("kind",),
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MaintenanceAgent":
        with self._lock:
            if self._running:
                return self
            self._running = True
        self._thread = threading.Thread(
            target=self._run, name="repro-maintenance", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) finish queued work
        first, otherwise abandon it."""
        with self._lock:
            if not self._running:
                return
            self._running = False
        if drain:
            self._queue.join()
        self._queue.put(None)  # wake the worker so it sees _running=False
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def running(self) -> bool:
        return self._running

    # -- the request queue ---------------------------------------------------

    def submit(
        self, kind: str, action: Callable[[], None], dedupe: bool = False
    ) -> bool:
        """Queue one request; returns False if it was deduplicated away or
        the agent is stopped (callers then fall back to doing the work
        synchronously)."""
        with self._lock:
            if not self._running:
                return False
            if dedupe:
                if kind in self._inflight:
                    self._m_deduped.inc(kind=kind)
                    return False
                self._inflight.add(kind)
        self._m_requests.inc(kind=kind)
        self._queue.put(_Request(kind, action, parent=self.tracer.current))
        return True

    def drain(self) -> None:
        """Block until every accepted request has finished executing."""
        self._queue.join()

    def _run(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                self._queue.task_done()
                if not self._running:
                    return
                continue
            token = self.tracer.adopt(request.parent)
            try:
                with self.tracer.span("maintenance.%s" % request.kind,
                                      kind=request.kind):
                    request.action()
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.failures += 1
                self._m_failures.inc(kind=request.kind)
                LOG.warning(
                    "maintenance.failed", kind=request.kind, error=str(exc)
                )
            finally:
                self.tracer.release(token)
                with self._lock:
                    self._inflight.discard(request.kind)
                self._queue.task_done()

    def __repr__(self) -> str:
        return "MaintenanceAgent(running=%r, failures=%d)" % (
            self._running,
            self.failures,
        )
