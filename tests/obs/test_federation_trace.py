"""Distributed tracing: span ids propagate across the simulated network
and federation metrics count shipped work per server."""

import pytest

from repro.dist import FederatedDirectory
from repro.obs.trace import Tracer
from repro.workload import random_instance

from tests.dist.faults import RecordingNetwork
from tests.meter import Meter


@pytest.fixture
def traced_federation():
    instance = random_instance(31, size=120, forest_roots=3)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
    tracer = Tracer()
    fed = FederatedDirectory.partition(
        instance, assignments, page_size=8,
        network=RecordingNetwork(),
        leaf_cache_bytes=0,  # always ship, so every query traces remotely
        tracer=tracer,
    )
    return fed, tracer, Meter()


def remote_query(fed):
    """A coordinator plus an atomic query owned by a different server."""
    context = fed.servers["server1"].contexts[0]
    return "server0", "(%s ? sub ? kind=alpha)" % context


class TestTracePropagation:
    def test_remote_span_joins_the_coordinator_trace(self, traced_federation):
        fed, tracer, _meter = traced_federation
        at, text = remote_query(fed)
        fed.query(at, text)
        root = tracer.last_root()
        assert root.name == "fed-query"
        remote = root.find("remote-atomic")
        assert remote is not None
        assert remote.attrs["server"] == "server1"
        # The remote server records its serving span in its *own* tracer,
        # but grafted into the coordinator's trace via the carried context.
        served = fed.servers["server1"].tracer.last_root()
        assert served.name == "serve-atomic"
        assert served.trace_id == root.trace_id
        assert served.parent_id == remote.span_id
        assert served.attrs["server"] == "server1"

    def test_network_log_carries_the_trace_id(self, traced_federation):
        fed, tracer, _meter = traced_federation
        at, text = remote_query(fed)
        fed.query(at, text)
        root = tracer.last_root()
        assert len(fed.network.trace_ids) == len(fed.network.log) == 2
        assert set(fed.network.trace_ids) == {root.trace_id}

    def test_local_leaves_join_too(self, traced_federation):
        fed, tracer, _meter = traced_federation
        local_context = fed.servers["server0"].contexts[0]
        fed.query("server0", "(%s ? sub ? kind=alpha)" % local_context)
        root = tracer.last_root()
        served = fed.servers["server0"].tracer.last_root()
        assert served.trace_id == root.trace_id

    def test_members_get_their_own_tracers(self, traced_federation):
        fed, tracer, _meter = traced_federation
        tracers = {name: server.tracer for name, server in fed.servers.items()}
        assert all(t.enabled for t in tracers.values())
        assert all(t is not tracer for t in tracers.values())

    def test_untraced_federation_stays_untraced(self):
        instance = random_instance(31, size=60, forest_roots=2)
        roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
        assignments = {"s%d" % i: [root] for i, root in enumerate(roots)}
        fed = FederatedDirectory.partition(instance, assignments, page_size=8)
        assert not fed.tracer.enabled
        assert all(not s.tracer.enabled for s in fed.servers.values())


class TestFederationMetrics:
    def test_shipping_is_counted_per_server(self, traced_federation):
        fed, _tracer, meter = traced_federation
        at, text = remote_query(fed)
        result = fed.query(at, text)
        assert meter("repro_fed_remote_requests_total", server="server1") == 1
        assert meter("repro_fed_shipped_sublists_total", server="server1") == 1
        shipped = meter("repro_fed_shipped_entries_total", server="server1")
        assert shipped == result.entries_shipped
        assert meter("repro_fed_remote_requests_total", server="server2") == 0

    def test_leaf_cache_outcomes_counted(self):
        instance = random_instance(31, size=120, forest_roots=3)
        roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
        assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
        fed = FederatedDirectory.partition(instance, assignments, page_size=8)
        meter = Meter()
        at = "server0"
        text = "(%s ? sub ? kind=alpha)" % fed.servers["server1"].contexts[0]
        fed.query(at, text)
        fed.query(at, text)
        assert meter("repro_fed_leaf_cache_lookups_total", outcome="miss") == 1
        assert meter("repro_fed_leaf_cache_lookups_total", outcome="hit") == 1


class TestRebinding:
    def test_a_span_open_across_a_rebinding_keeps_its_own_block(self):
        # Each query rebinds the shared tracer's block to its coordinator's
        # pager.  A span opened over server0's pager must still diff
        # server0's pager at close, not the one bound by then.
        instance = random_instance(29, size=100, forest_roots=2)
        roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
        assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
        tracer = Tracer()
        fed = FederatedDirectory.partition(
            instance, assignments, page_size=8, leaf_cache_bytes=0,
            tracer=tracer,
        )
        query = "( ? sub ? kind=alpha)"
        for _ in range(30):
            fed.query("server0", query)
        pagers = [fed.servers[name].engine.pager for name in ("server0", "server1")]
        before = [pager.stats.snapshot() for pager in pagers]
        with tracer.span("outer"):
            fed.query("server1", query)
        outer = tracer.last_root()
        (fed_query,) = outer.children
        assert outer.io.as_dict() == pagers[0].stats.since(before[0]).as_dict()
        assert fed_query.io.as_dict() == pagers[1].stats.since(before[1]).as_dict()
        assert fed_query.io.total > 0
        for span in outer.walk():
            assert min(span.io.as_dict().values()) >= 0, span.name
            for field in ("total", "logical_total"):
                assert span.exclusive(field) >= 0, (span.name, field)
        # The child bracketed another block: nothing of it is subtracted.
        assert outer.exclusive("total") == outer.io.total
