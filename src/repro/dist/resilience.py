"""Retry, circuit breaking and degradation policy for the federation.

The coordinator's remote atomic calls (the federation's leaf provider,
``dist.federation._ScatterGather``) go through three layers, in order:

1. a per-server :class:`CircuitBreaker` -- after ``failure_threshold``
   consecutive failures the server is not even attempted until a reset
   timeout elapses (half-open probes decide recovery); state transitions
   are counted in ``repro_breaker_transitions_total``;
2. a :class:`RetryPolicy` -- bounded attempts with exponential backoff
   and deterministic (seeded) jitter, capped by an optional per-query
   deadline on the simulated clock;
3. the degradation ladder of :class:`ResiliencePolicy` -- serve the last
   known good sublist from the :class:`StaleStore`, fail over to an
   attached replica router, or mark the result partial (``strict`` mode
   raises instead).

Everything here is clock-agnostic: callers pass ``now`` explicitly (the
federation reads it off the fault injector's simulated clock), so tests
and the chaos benchmark control time exactly.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..obs.log import LOG
from ..obs.metrics import get_registry

__all__ = ["RetryPolicy", "CircuitBreaker", "StaleStore", "ResiliencePolicy"]


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``backoff(failures)`` is ``backoff_s * multiplier**(failures-1)``
    inflated by up to ``jitter`` (relative, from this policy's own seeded
    RNG -- deterministic for a fixed execution).  ``deadline_s`` bounds
    the whole query's retry budget on the simulated clock.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        backoff_s: float = 0.05,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        deadline_s: Optional[float] = None,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if backoff_s < 0 or jitter < 0 or multiplier < 1:
            raise ValueError("invalid backoff parameters")
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.multiplier = multiplier
        self.jitter = jitter
        self.deadline_s = deadline_s
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def backoff(self, failures: int) -> float:
        """The wait before the next attempt, after ``failures`` (>= 1)
        consecutive failures."""
        base = self.backoff_s * (self.multiplier ** (failures - 1))
        with self._lock:  # the seeded RNG is shared across workers
            draw = self._rng.random()
        return base * (1.0 + self.jitter * draw)

    def should_retry(self, attempts: int, now: float,
                     deadline: Optional[float]) -> bool:
        """Whether another attempt is allowed after ``attempts`` tries."""
        if attempts >= self.max_attempts:
            return False
        return deadline is None or now < deadline

    def __repr__(self) -> str:
        return "RetryPolicy(max_attempts=%d, backoff=%gs, deadline=%s)" % (
            self.max_attempts, self.backoff_s, self.deadline_s,
        )


class CircuitBreaker:
    """A per-server closed/open/half-open breaker.

    Closed counts consecutive failures; at ``failure_threshold`` it
    opens.  Open rejects everything until ``reset_timeout_s`` of
    (simulated) time has passed, then half-opens and admits one trial
    call: its success closes the breaker, its failure re-opens it.
    ``transitions`` keeps the full history for tests and the chaos
    report.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.name = name
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self._probing = False
        # One breaker may be consulted by several scatter workers at
        # once; state reads+transitions must be atomic or two threads can
        # both win the half-open trial / tear a transition append.
        self._lock = threading.Lock()
        #: (now, from_state, to_state) per transition, oldest first.
        self.transitions: List[Tuple[float, str, str]] = []
        self._m_transitions = get_registry().counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions",
            labelnames=("server", "to"),
        )

    def _transition(self, to: str, now: float) -> None:
        if to == self.state:
            return
        self.transitions.append((now, self.state, to))
        previous, self.state = self.state, to
        self._m_transitions.inc(server=self.name, to=to)
        if LOG.enabled:
            LOG.warning(
                "breaker.transition",
                server=self.name,
                at=now,
                to=to,
                previous=previous,
            )
        if to == self.CLOSED:
            self.failures = 0
        elif to == self.OPEN:
            self.opened_at = now
        elif to == self.HALF_OPEN:
            self._probing = False

    def allow(self, now: float) -> bool:
        """Whether a call may be attempted at (simulated) time ``now``."""
        with self._lock:
            if self.state == self.OPEN and now - self.opened_at >= self.reset_timeout_s:
                self._transition(self.HALF_OPEN, now)
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self, now: float) -> None:
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._transition(self.CLOSED, now)
            self.failures = 0

    def record_failure(self, now: float) -> None:
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._transition(self.OPEN, now)
                return
            self.failures += 1
            if self.state == self.CLOSED and self.failures >= self.failure_threshold:
                self._transition(self.OPEN, now)

    def open_count(self) -> int:
        """How many times the breaker has opened (for the chaos report)."""
        return sum(1 for _, _, to in self.transitions if to == self.OPEN)

    def __repr__(self) -> str:
        return "CircuitBreaker(%r, %s, failures=%d)" % (
            self.name, self.state, self.failures
        )


class StaleStore:
    """Last-known-good remote sublists, for serve-stale degradation.

    Unlike the leaf cache (which is invalidated to stay *correct*), this
    store deliberately keeps the most recent successfully shipped result
    per ``(server, fingerprint)`` key even after invalidation -- it is
    only consulted when the owner is unreachable, and every answer from
    it is flagged with a warning.  A bounded LRU of ``max_keys`` keys.
    """

    def __init__(self, max_keys: int = 256):
        if max_keys < 1:
            raise ValueError("max_keys must be positive")
        self.max_keys = max_keys
        self._entries: "OrderedDict[str, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.served = 0

    def put(self, key: str, entries: Sequence) -> None:
        frozen = tuple(entries)
        with self._lock:
            self._entries[key] = frozen
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_keys:
                self._entries.popitem(last=False)

    def get(self, key: str) -> Optional[tuple]:
        with self._lock:
            entries = self._entries.get(key)
            if entries is not None:
                self._entries.move_to_end(key)
                self.served += 1
            return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return "StaleStore(%d keys, served=%d)" % (len(self._entries), self.served)


class ResiliencePolicy:
    """How the federation survives remote failures.

    ``mode`` selects the last rung of the degradation ladder: "partial"
    answers with the reachable servers' data (the result is marked, with
    ``missing_servers`` and warnings), "strict" re-raises the final
    :class:`~repro.dist.errors.NetworkError`.  ``serve_stale`` enables the
    last-known-good rung; replica failover is enabled by attaching
    routers via :meth:`FederatedDirectory.attach_replica`.
    """

    MODES = ("partial", "strict")

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        mode: str = "partial",
        serve_stale: bool = True,
    ):
        if mode not in self.MODES:
            raise ValueError("mode must be one of %s" % (self.MODES,))
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_s = breaker_reset_s
        self.mode = mode
        self.serve_stale = serve_stale

    def make_breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            reset_timeout_s=self.breaker_reset_s,
            name=name,
        )

    def __repr__(self) -> str:
        return "ResiliencePolicy(mode=%r, retry=%r, serve_stale=%s)" % (
            self.mode, self.retry, self.serve_stale
        )
