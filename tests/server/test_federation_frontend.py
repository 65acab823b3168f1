"""DirectoryService as a federation frontend: distributed reads with
degradation warnings surfacing on results, metrics and the slow log."""

import pytest

from repro.dist import FederatedDirectory, RetryPolicy
from repro.query.semantics import evaluate
from repro.query.parser import parse_query
from repro.server import DirectoryService
from repro.workload import random_instance

from tests.dist.faults import FaultInjector, FaultPlan
from tests.logcap import capture
from tests.meter import Meter


def make_frontend(plan=None, slow_query_seconds=None):
    instance = random_instance(29, size=100, forest_roots=2)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
    network = FaultInjector(plan or FaultPlan())
    fed = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=8,
        network=network,
        leaf_cache_bytes=0,
    )
    fed.enable_resilience(
        retry=RetryPolicy(max_attempts=2, backoff_s=0.01), serve_stale=False
    )
    service = DirectoryService(instance, slow_query_seconds=slow_query_seconds)
    service.attach_federation(fed, "server0")
    remote_query = "(%s ? sub ? objectClass=*)" % roots[1]
    return instance, service, network, remote_query


class TestFrontend:
    def test_attach_validates_the_coordinator(self):
        _, service, _, _ = make_frontend()
        fed = service._federation[0]
        with pytest.raises(KeyError):
            service.attach_federation(fed, "nonesuch")

    def test_search_is_answered_distributedly(self):
        instance, service, network, query = make_frontend()
        result = service.search(query)
        expected = [str(e.dn) for e in evaluate(parse_query(query), instance)]
        assert result.dns() == expected
        assert not result.warnings
        assert network.messages == 2  # the remote leaf went over the wire

    def test_degradation_warnings_surface_on_the_result(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        instance, service, network, query = make_frontend(plan)
        meter = Meter()
        result = service.search(query)
        assert result.dns() == []
        assert any("result is partial" in w for w in result.warnings)
        assert meter("repro_degraded_searches_total") == 1

    def test_degraded_search_lands_in_the_slow_log_with_context(self):
        plan = FaultPlan().drop_message(0).crash("server1", 10.0, 1e9)
        instance, service, network, query = make_frontend(
            plan, slow_query_seconds=0.0  # record everything
        )
        result = service.search(query)  # drop then retry: clean answer
        assert not result.warnings
        network.sleep(20.0)  # into the crash window
        service.search(query)
        records = service.slow_queries.records()
        assert records[0].retries == 1 and records[0].warnings == ()
        assert records[-1].warnings and "unreachable" in records[-1].warnings[0]
        payload = records[-1].as_dict()
        assert payload["warnings"] == list(records[-1].warnings)

    def test_every_sink_reports_the_coordinator_side_page_cost(self):
        # The evaluation ran on the coordinator's pager, not the
        # frontend's local one: a bracket around the local pager reads 0.
        _, service, _, query = make_frontend(slow_query_seconds=0.0)
        meter = Meter()
        with capture() as log:
            service.search(query)
        (record,) = service.slow_queries.records()
        (line,) = log.events("search")
        (slow_line,) = log.events("slow_query")
        row = service.digest.top(1)[0]
        pages = record.as_dict()["io_total"]
        assert row.federated == 1
        assert pages > 0
        assert line["pages"] == slow_line["pages"] == pages
        assert row.pages_total == pages
        assert meter.sum("repro_search_logical_io") == pages

    def test_mutations_keep_using_the_local_directory(self):
        instance, service, network, query = make_frontend()
        root = next(iter(instance.roots())).dn
        before = network.attempts
        service.add("name=added, %s" % root, ["node"], name="added")
        assert service.compare("name=added, %s" % root, "name", "added")
        assert network.attempts == before  # writes never touch the network
