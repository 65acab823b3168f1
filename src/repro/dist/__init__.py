"""Distributed directory service: servers, DNS-style location, federation
(Sections 3.3 and 8.3), log-shipped replication with epoch-fenced
failover, and the resilience toolkit -- retry/backoff, circuit breakers
and graceful partial-result degradation (footnote 4's availability
story).  The fault injector that drives them under chaos, and the checks
of the outcome, are test code: ``tests/dist/`` and benchmark E21."""

from .errors import (
    DistError,
    LocatorError,
    NetworkError,
    ReferralError,
    ReplicationError,
)
from .federation import FederatedDirectory, FederatedResult
from .locator import ServerLocator
from .network import SimulatedNetwork
from .referral import Referral, ReferralClient
from .replication import AvailabilityRouter, ReplicaNode, ReplicatedContext
from .resilience import CircuitBreaker, ResiliencePolicy, RetryPolicy, StaleStore
from .server import DirectoryServer

__all__ = [
    "AvailabilityRouter",
    "CircuitBreaker",
    "DirectoryServer",
    "DistError",
    "FederatedDirectory",
    "FederatedResult",
    "LocatorError",
    "NetworkError",
    "Referral",
    "ReferralClient",
    "ReferralError",
    "ReplicaNode",
    "ReplicatedContext",
    "ReplicationError",
    "ResiliencePolicy",
    "RetryPolicy",
    "ServerLocator",
    "SimulatedNetwork",
    "StaleStore",
]
