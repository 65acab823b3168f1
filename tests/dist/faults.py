"""Deterministic fault injection for the simulated network.

The paper's availability story (footnote 4) only matters if messages can
fail; :class:`FaultInjector` makes them fail *reproducibly*.  A seeded
:class:`FaultPlan` describes the chaos -- iid message drops, added
delivery latency against a simulated clock, pairwise partitions and
per-server crash windows -- and the injector applies it to every
:meth:`~repro.dist.network.SimulatedNetwork.send`, raising a structured
:class:`~repro.dist.errors.NetworkError` for each injected fault.

Design constraints:

- **Determinism.**  One seeded RNG, consumed in a fixed order per send
  (drop draw, then latency draw), so a (plan, workload) pair replays the
  exact same fault schedule -- that is what makes chaos *testable*.
- **Zero overhead when disabled.**  With a default plan the injector
  delivers every message and its counters match a plain
  :class:`SimulatedNetwork` exactly.
- **Simulated time.**  The injector keeps a clock (``now``, seconds)
  advanced by message latency and by :meth:`sleep` (retry backoff), so
  crash/partition windows, breaker reset timeouts and per-query deadlines
  all share one timeline without real waiting.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.dist.errors import NetworkError
from repro.dist.network import SimulatedNetwork
from repro.obs.log import LOG
from repro.obs.metrics import get_registry

__all__ = ["FaultPlan", "FaultInjector", "RecordingNetwork"]


class RecordingNetwork(SimulatedNetwork):
    """A :class:`SimulatedNetwork` that, with ``keep_log``, also keeps a
    ledger of the messages it delivered.

    ``log`` holds one ``(source, destination, kind, entry_count)`` per
    message and ``trace_ids`` the trace id each carried (None for
    untraced traffic) -- how span identity crosses the simulated wire.
    """

    def __init__(self, keep_log: bool = True, wire_latency_s: float = 0.0):
        super().__init__(wire_latency_s=wire_latency_s)
        self.keep_log = keep_log
        self.log: List[Tuple[str, str, str, int]] = []
        self.trace_ids: List[Optional[str]] = []

    def send(
        self,
        source: str,
        destination: str,
        kind: str,
        entry_count: int = 0,
        trace_id: Optional[str] = None,
    ) -> None:
        super().send(source, destination, kind, entry_count, trace_id)
        if self.keep_log:
            with self._lock:
                self.log.append((source, destination, kind, entry_count))
                self.trace_ids.append(trace_id)

    def reset(self) -> None:
        with self._lock:
            super().reset()
            self.log = []
            self.trace_ids = []


class FaultPlan:
    """A seeded, declarative fault schedule.

    ``drop_rate`` drops each message independently; ``latency_s`` +
    ``jitter_s`` is the per-message delivery delay (uniform jitter);
    ``timeout_s`` turns a sampled delay past the bound into a timeout
    fault.  :meth:`partition` and :meth:`crash` add windows on the
    simulated clock; :meth:`drop_message` scripts exact drops by global
    send index (deterministic tests).  All schedule methods return the
    plan for chaining.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        latency_s: float = 0.0,
        jitter_s: float = 0.0,
        timeout_s: Optional[float] = None,
    ):
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if latency_s < 0 or jitter_s < 0:
            raise ValueError("latencies must be non-negative")
        self.seed = seed
        self.drop_rate = drop_rate
        self.latency_s = latency_s
        self.jitter_s = jitter_s
        self.timeout_s = timeout_s
        self._partitions: List[Tuple[FrozenSet[str], float, float]] = []
        self._crashes: List[Tuple[str, float, float]] = []
        self._drop_indices: set = set()

    # -- schedule -----------------------------------------------------------

    def partition(self, a: str, b: str, start: float = 0.0,
                  end: float = math.inf) -> "FaultPlan":
        """Block traffic between ``a`` and ``b`` (both directions) during
        ``[start, end)`` on the simulated clock."""
        self._partitions.append((frozenset((a, b)), start, end))
        return self

    def crash(self, server: str, start: float = 0.0,
              end: float = math.inf) -> "FaultPlan":
        """Take ``server`` down during ``[start, end)``: every message it
        would send or receive faults."""
        self._crashes.append((server, start, end))
        return self

    def drop_message(self, *indices: int) -> "FaultPlan":
        """Drop the exact sends with these global attempt indices
        (0-based, counted across all traffic)."""
        self._drop_indices.update(indices)
        return self

    # -- predicates ---------------------------------------------------------

    def crashed(self, server: str, now: float) -> bool:
        return any(
            name == server and start <= now < end
            for name, start, end in self._crashes
        )

    def partitioned(self, a: str, b: str, now: float) -> bool:
        pair = frozenset((a, b))
        return any(
            pair == cut and start <= now < end
            for cut, start, end in self._partitions
        )

    def __repr__(self) -> str:
        return "FaultPlan(seed=%d, drop=%.3f, partitions=%d, crashes=%d)" % (
            self.seed, self.drop_rate, len(self._partitions), len(self._crashes)
        )


class FaultInjector(RecordingNetwork):
    """A network that applies a :class:`FaultPlan` (and keeps the
    :class:`RecordingNetwork` ledger only with ``keep_log``).

    Delivered messages count in the inherited ``messages`` /
    ``entries_shipped`` (so traffic accounting stays comparable to the
    fault-free network); faulted sends count in ``attempts`` and the
    per-code ``faults`` dict instead, and in the
    ``repro_net_faults_total`` metric.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, keep_log: bool = False,
                 wire_latency_s: float = 0.0):
        super().__init__(keep_log=keep_log, wire_latency_s=wire_latency_s)
        self.plan = plan or FaultPlan()
        self._rng = random.Random(self.plan.seed)
        #: Simulated clock, in seconds.
        self.now = 0.0
        #: Send attempts, including faulted ones (``messages`` counts
        #: deliveries only).
        self.attempts = 0
        #: Injected faults by :class:`NetworkError` code.
        self.faults: Dict[str, int] = {}
        self._m_faults = get_registry().counter(
            "repro_net_faults_total",
            "Injected network faults",
            labelnames=("code",),
        )

    def sleep(self, seconds: float) -> None:
        """Advance the simulated clock (retry backoff 'waits' here)."""
        if seconds > 0:
            with self._lock:
                self.now += seconds

    def _fault(self, code: str, message: str, server: Optional[str] = None):
        # Called with self._lock held (from send); raising releases it.
        self.faults[code] = self.faults.get(code, 0) + 1
        self._m_faults.inc(code=code)
        if LOG.enabled:
            LOG.info(
                "fault.injected", code=code, server=server, at=round(self.now, 6)
            )
        raise NetworkError(message, code=code, server=server)

    def send(
        self,
        source: str,
        destination: str,
        kind: str,
        entry_count: int = 0,
        trace_id: Optional[str] = None,
    ) -> None:
        plan = self.plan
        # Fault decision, RNG draws and clock advance happen atomically
        # under the network lock (parallel scatter sends from several
        # threads); the delivery -- which may really sleep -- happens
        # outside it so concurrent waits overlap.
        with self._lock:
            index = self.attempts
            self.attempts += 1
            for endpoint in (source, destination):
                if plan.crashed(endpoint, self.now):
                    self._fault(
                        NetworkError.SERVER_DOWN,
                        "%s is down (message %s -> %s)" % (endpoint, source, destination),
                        server=endpoint,
                    )
            if plan.partitioned(source, destination, self.now):
                self._fault(
                    NetworkError.PARTITIONED,
                    "%s and %s are partitioned" % (source, destination),
                    server=destination,
                )
            # RNG draws happen in a fixed order (drop, then latency) so the
            # schedule replays identically for a given plan and workload.
            dropped = plan.drop_rate > 0 and self._rng.random() < plan.drop_rate
            latency = plan.latency_s
            if plan.jitter_s:
                latency += self._rng.random() * plan.jitter_s
            if index in plan._drop_indices:
                dropped = True
            if dropped:
                self.now += latency
                self._fault(
                    NetworkError.DROPPED,
                    "dropped %s message %s -> %s" % (kind, source, destination),
                    server=destination,
                )
            if plan.timeout_s is not None and latency > plan.timeout_s:
                self.now += plan.timeout_s
                self._fault(
                    NetworkError.TIMEOUT,
                    "%s message %s -> %s timed out" % (kind, source, destination),
                    server=destination,
                )
            self.now += latency
        super().send(source, destination, kind, entry_count, trace_id)

    def fault_count(self) -> int:
        return sum(self.faults.values())

    def reset(self) -> None:
        with self._lock:
            super().reset()
            self._rng = random.Random(self.plan.seed)
            self.now = 0.0
            self.attempts = 0
            self.faults = {}

    def __repr__(self) -> str:
        return "FaultInjector(messages=%d, faults=%d, now=%.3fs)" % (
            self.messages, self.fault_count(), self.now
        )
