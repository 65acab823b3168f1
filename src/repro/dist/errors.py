"""The distributed layer's error hierarchy.

Every failure the simulated wide-area deployment can produce -- an
unowned dn, a broken referral chain, an exhausted replica set, a faulted
network message -- derives from :class:`DistError` and carries a
structured ``code``, mirroring the :class:`~repro.storage.maintenance.
UpdateError` pattern: callers (the federation's degradation ladder, the
chaos report, protocol mappings) dispatch on ``code`` instead of matching
message text.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "DistError",
    "LocatorError",
    "NetworkError",
    "ReferralError",
    "ReplicationError",
]


class DistError(RuntimeError):
    """Base for distributed-layer failures, with a structured ``code``."""

    #: Anything a subclass did not classify.
    OTHER = "other"

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.code = code if code is not None else self.OTHER

    def __repr__(self) -> str:
        return "%s(%r, code=%r)" % (type(self).__name__, str(self), self.code)


class NetworkError(DistError):
    """A message between servers did not get through.

    Raised by a network that injects faults, such as the test suite's
    ``FaultInjector`` (the plain
    :class:`~repro.dist.network.SimulatedNetwork` never fails); ``server``
    names the endpoint at fault when one is known.
    """

    #: The message was lost in transit (iid drop or a scripted drop).
    DROPPED = "dropped"
    #: The sampled delivery latency exceeded the plan's timeout.
    TIMEOUT = "timeout"
    #: Source and destination are on opposite sides of a partition.
    PARTITIONED = "partitioned"
    #: An endpoint is inside a crash/down window.
    SERVER_DOWN = "serverDown"
    #: The per-server circuit breaker is open (no attempt was made).
    BREAKER_OPEN = "breakerOpen"

    def __init__(self, message: str, code: Optional[str] = None,
                 server: Optional[str] = None):
        super().__init__(message, code)
        self.server = server


class ReplicationError(DistError):
    """A replication-group request was refused (no acceptable replica,
    a fenced write, or an unreachable acknowledgment level)."""

    #: Every candidate was down or lagged past the staleness bound.
    NO_REPLICA = "noLiveReplica"
    #: A deposed primary (stale epoch) tried to write or ship.
    FENCED = "fenced"
    #: A write reached the primary but not its acknowledgment level
    #: (quorum/all); it is NOT acknowledged and may be lost on failover.
    ACK_FAILED = "ackFailed"
    #: A client write was sent to a node that never was the primary.
    NOT_PRIMARY = "notPrimary"
    #: Promotion found no live candidate to take over the context.
    NO_CANDIDATE = "noCandidate"


class ReferralError(DistError):
    """A client-chased referral chain could not be resolved."""

    #: The chain exceeded the client's hop limit.
    LIMIT_EXCEEDED = "referralLimit"
    #: A referral named a server outside the federation.
    UNKNOWN_SERVER = "unknownServer"
    #: A composite query was given to the atomic-only referral protocol.
    NOT_ATOMIC = "notAtomic"


class LocatorError(DistError, LookupError):
    """No server owns a dn (kept a :class:`LookupError` for callers that
    treat location as a lookup)."""

    #: No registered context is an ancestor of the dn.
    NO_OWNER = "noOwner"
