"""The workload observability plane wired through the service: searches
populate the digest table and heat map, mutations feed writes through the
record listener, alert rules evaluate on the search path, and firing
alerts degrade ``/healthz``."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from tests.obs.test_budget import QUERY, make_instance
from repro.obs.alerts import parse_rule
from repro.obs.metrics import MetricsRegistry
from repro.server import DirectoryService


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read())


@pytest.fixture
def service():
    svc = DirectoryService(
        make_instance(), page_size=4, metrics=MetricsRegistry()
    )
    svc.bind_anonymous()
    yield svc
    svc.close()


class TestDigestWiring:
    def test_searches_fold_into_one_fingerprint_row(self, service):
        for _ in range(5):
            service.search(QUERY)
        assert len(service.digest) == 1
        row = service.digest.top(1)[0]
        assert row.calls == 5
        # First run evaluates; the rest are exact cache hits.
        assert row.cache_hits == 4
        assert row.pages_total > 0
        assert row.entries_total == 5 * 4  # four grade-5 entries per call

    def test_cache_hits_are_not_page_charged(self, service):
        service.search(QUERY)
        engine_pages = service.digest.top(1)[0].pages_total
        service.search(QUERY)
        assert service.digest.top(1)[0].pages_total == engine_pages

    def test_acd_equivalent_spellings_share_a_row(self, service):
        # Union operands commute under ACD normalisation: one fingerprint,
        # one digest row, and the second call is an exact cache hit.
        service.search("(| (dc=com ? sub ? grade=5) (dc=com ? sub ? grade=4))")
        service.search("(| (dc=com ? sub ? grade=4) (dc=com ? sub ? grade=5))")
        assert len(service.digest) == 1
        row = service.digest.top(1)[0]
        assert row.calls == 2 and row.cache_hits == 1

    def test_digest_capacity_zero_disables(self):
        service = DirectoryService(
            make_instance(), metrics=MetricsRegistry(), digest_capacity=0
        )
        service.bind_anonymous()
        service.search(QUERY)
        assert service.digest is None

    def test_planner_qerror_lands_in_the_row(self):
        service = DirectoryService(
            make_instance(), metrics=MetricsRegistry(), planner="cost"
        )
        service.bind_anonymous()
        service.search(QUERY)
        row = service.digest.top(1)[0]
        assert row.qerror_count == 1 and row.qerror_max >= 1.0


class TestHeatmapWiring:
    def test_reads_and_writes_land_in_subtree_cells(self, service):
        service.search(QUERY)
        service.add("uid=new, dc=com", ["account"], uid="new", grade=9)
        cells = {c["subtree"]: c for c in service.heatmap.hottest(10)}
        read_cell = cells["dc=com"]
        assert read_cell.get("reads_total", 0) >= 1
        assert read_cell["pages_total"] > 0
        write_cell = cells["uid=new, dc=com"]
        assert write_cell["writes_total"] == 1

    def test_depth_zero_disables(self):
        service = DirectoryService(
            make_instance(), metrics=MetricsRegistry(), heatmap_depth=0
        )
        service.bind_anonymous()
        service.search(QUERY)
        assert service.heatmap is None

    def test_close_detaches_the_write_listener(self, service):
        directory = service.directory
        listener = service._heat_listener
        assert listener in directory._record_listeners
        service.close()
        assert listener not in directory._record_listeners


class TestFederationShipping:
    def test_remote_shipping_lands_in_the_frontends_heatmap(self):
        from repro.dist import FaultInjector, FaultPlan, FederatedDirectory
        from repro.workload import random_instance

        registry = MetricsRegistry()
        instance = random_instance(29, size=100, forest_roots=2)
        roots = sorted(
            {e.dn for e in instance.roots()}, key=lambda dn: dn.key()
        )
        fed = FederatedDirectory.partition(
            instance,
            {"server%d" % i: [root] for i, root in enumerate(roots)},
            page_size=8,
            network=FaultInjector(FaultPlan(), metrics=registry),
            leaf_cache_bytes=0,
            metrics=registry,
        )
        service = DirectoryService(
            instance, metrics=registry, heatmap_depth=1
        )
        service.bind_anonymous()
        service.attach_federation(fed, "server0")
        # attach_federation shares the frontend's map with the federation.
        assert fed.heatmap is service.heatmap
        remote_root = roots[1]
        result = service.search("(%s ? sub ? objectClass=*)" % remote_root)
        assert result.total_size > 0
        cells = {c["subtree"]: c for c in service.heatmap.hottest(10)}
        shipped = cells[str(remote_root)]["shipped_total"]
        assert shipped == result.total_size


class TestHistoryAndAlerts:
    def test_search_path_samples_history_and_evaluates_alerts(self, service):
        clock = {"now": 0.0}
        engine = service.attach_alerts(
            [parse_rule("rate(repro_searches_total, 30) > 5", name="burst")],
            min_interval_s=0.0,
            clock=lambda: clock["now"],
        )
        for _ in range(20):
            service.search(QUERY)
            clock["now"] += 0.1
        assert engine.evaluations == 20
        assert [f["name"] for f in engine.firing()] == ["burst"]
        # Idle under the injected clock: the burst ages out and resolves.
        for _ in range(3):
            clock["now"] += 30.0
            engine.evaluate()
        assert engine.firing() == []
        to = [t["to"] for t in engine.status()["transitions"]]
        assert to == ["firing", "resolved"]

    def test_racing_searches_evaluate_once(self, service):
        """Thread A stops inside the engine's clock read while thread B
        searches in the same interval.  The interval is claimed under the
        lock it is checked in, so B's search skips the round: one round,
        and a ``for 2`` rule cannot fire on one interval's data."""
        now = {"t": 0.0}
        a_in_clock = threading.Event()
        b_done = threading.Event()

        def clock():
            if threading.current_thread().name == "A":
                a_in_clock.set()
                b_done.wait(0.5)
            return now["t"]

        engine = service.attach_alerts(
            [parse_rule("rate(repro_searches_total, 30) > 0 for 2",
                        name="burst")],
            clock=clock,
        )
        service.search(QUERY)  # the interval at t=0: one round
        assert engine.evaluations == 1
        now["t"] = 1.0

        def search_b():
            service.search(QUERY)
            b_done.set()

        a = threading.Thread(target=service.search, args=(QUERY,), name="A")
        b = threading.Thread(target=search_b, name="B")
        a.start()
        assert a_in_clock.wait(5)
        b.start()
        a.join(5)
        b.join(5)
        assert not a.is_alive() and not b.is_alive()
        assert engine.evaluations == 2
        assert engine.firing() == []

    def test_healthz_degrades_while_an_alert_fires(self, service):
        clock = {"now": 0.0}
        service.attach_alerts(
            [parse_rule("repro_searches_total >= 1", name="any-search")],
            min_interval_s=0.0,
            clock=lambda: clock["now"],
        )
        for _ in range(3):
            service.search(QUERY)
            clock["now"] += 1.0
        server = service.serve_admin()
        try:
            payload = _get(server.url + "/healthz")
            assert payload["status"] == "degraded"
            assert payload["alerts"]["firing"] == ["any-search"]
            alerts = _get(server.url + "/alerts")
            assert alerts["enabled"] is True
            assert alerts["firing"] == ["any-search"]
            assert alerts["evaluations"] == 3
            digest = _get(server.url + "/digest")
            assert digest["top"][0]["calls"] == 3
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/history")
            assert err.value.code == 404
        finally:
            server.stop()

    def test_attach_alerts_defaults_to_stock_rules(self, service):
        engine = service.attach_alerts()
        assert service.attach_alerts() is engine
        assert service._sinks[-1] == engine.observe
        assert engine.registry is service.metrics
        assert {r.name for r in engine.rules} == {
            "planner-qerror-p95", "replication-lag", "cache-hit-rate-floor",
        }
