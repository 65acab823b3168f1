"""The HTTP admin endpoint: every route, the byte-identical /metrics
guarantee, and lifecycle behaviour on an ephemeral port."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.event import SearchEvent
from repro.obs.httpd import AdminServer
from repro.obs.log import CapturingLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read()


@pytest.fixture
def stack():
    registry = MetricsRegistry()
    registry.counter("repro_searches_total", "Searches", labelnames=("code",)).inc(
        3, code="success"
    )
    latency = registry.histogram(
        "repro_search_seconds", "Latency", buckets=(0.001, 0.01, 0.1, 1.0)
    )
    for value in (0.002, 0.003, 0.004, 0.02):
        latency.observe(value)
    tracer = Tracer()
    with tracer.span("search") as span:
        span.set(code="success")
    event = SearchEvent(query_text="(slow)", elapsed=0.02, pages=40, trace_id="t1",
                        root=tracer.last_root())
    slowlog = SlowQueryLog(threshold_seconds=0.0)
    slowlog.record(event)
    server = AdminServer(
        registry=registry,
        slow_queries=slowlog,
        health=lambda: {"entries": 20},
    ).start()
    yield server, registry
    server.stop()


class TestEndpoints:
    def test_metrics_is_byte_identical_to_the_registry_export(self, stack):
        server, registry = stack
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body == registry.to_prometheus().encode("utf-8")
        assert b'repro_searches_total{code="success"} 3' in body

    def test_healthz_reports_status_uptime_and_owner_fields(self, stack):
        server, _ = stack
        status, headers, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0
        assert payload["entries"] == 20

    def test_slowlog_serves_the_ring_with_latency_quantiles(self, stack):
        server, _ = stack
        _, _, body = _get(server.url + "/slowlog")
        payload = json.loads(body)
        assert payload["threshold_s"] == 0.0
        assert payload["total"] == 1
        record = payload["records"][0]
        assert record["query"] == "(slow)" and record["trace_id"] == "t1"
        quantiles = payload["latency_quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]

    def test_traces_serves_the_sampler_tail(self, stack):
        server, _ = stack
        _, _, body = _get(server.url + "/traces")
        payload = json.loads(body)
        assert payload["offered"] == 1 and payload["kept"] == 1
        sample = payload["traces"][0]
        assert sample["trace_id"] == "t1"
        assert sample["reasons"] == ["slow"]
        assert sample["spans"]["name"] == "search"

    def test_trailing_slash_and_query_string_are_normalised(self, stack):
        server, registry = stack
        _, _, plain = _get(server.url + "/metrics")
        _, _, slashed = _get(server.url + "/metrics/")
        _, _, queried = _get(server.url + "/metrics?scrape=1")
        assert plain == slashed == queried

    def test_unknown_path_is_a_json_404(self, stack):
        server, _ = stack
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404
        assert json.loads(err.value.read())["path"] == "/nope"

    def test_scrapes_are_logged_at_debug(self):
        log = CapturingLogger(min_level="debug")
        with AdminServer(registry=MetricsRegistry(), log=log) as server:
            _get(server.url + "/healthz")
        events = [e["event"] for e in log.events()]
        assert events[0] == "admin.start"
        assert "admin.request" in events
        assert events[-1] == "admin.stop"


class TestWorkloadEndpoints:
    @pytest.fixture
    def workload_server(self):
        from repro.model.dn import DN
        from repro.obs.alerts import AlertEngine, parse_rule
        from repro.obs.digest import QueryDigestTable
        from repro.obs.heatmap import SubtreeHeatMap

        registry = MetricsRegistry()
        registry.gauge("repro_lag", "lag").set(9)
        digest = QueryDigestTable(capacity=8, clock=lambda: 100.0)
        digest.observe(SearchEvent(key="k1", query_text="(q1)", elapsed=0.010,
                                   pages=4, via="engine", qerror=2.0))
        digest.observe(SearchEvent(key="k1", query_text="(q1)", elapsed=0.001,
                                   via="cache"))
        digest.observe(SearchEvent(key="k2", query_text="(q2)", elapsed=0.500,
                                   pages=50, via="engine"))
        heatmap = SubtreeHeatMap(depth=2, clock=lambda: 100.0)
        heatmap.record_read(DN.parse("dc=att, dc=com"), pages=7)
        alerts = AlertEngine(
            registry, [parse_rule("repro_lag > 5", name="lag")],
            clock=lambda: 100.0, metrics=MetricsRegistry(),
        )
        alerts.evaluate()
        server = AdminServer(
            registry=registry, digest=digest, heatmap=heatmap, alerts=alerts,
        ).start()
        yield server
        server.stop()

    def test_digest_route_serves_the_table(self, workload_server):
        status, headers, body = _get(workload_server.url + "/digest?n=1&by=time")
        payload = json.loads(body)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert payload["enabled"] is True
        assert payload["rows"] == 2 and payload["by"] == "time"
        assert [r["key"] for r in payload["top"]] == ["k2"]

    def test_heatmap_route_serves_the_cells(self, workload_server):
        _, _, body = _get(workload_server.url + "/heatmap?n=5")
        payload = json.loads(body)
        assert payload["enabled"] is True and payload["depth"] == 2
        assert payload["hottest"][0]["subtree"] == "dc=att, dc=com"

    def test_history_route_is_gone(self, workload_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(workload_server.url + "/history")
        assert err.value.code == 404
        assert json.loads(err.value.read())["endpoints"] == [
            "/alerts", "/digest", "/healthz", "/heatmap", "/metrics",
            "/slowlog", "/traces",
        ]

    def test_alerts_route_serves_engine_status(self, workload_server):
        _, _, body = _get(workload_server.url + "/alerts")
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["firing"] == ["lag"]
        assert payload["transitions"][0]["to"] == "firing"
        assert payload["transitions"][0]["ts"] == 100.0
        assert payload["rules"][0]["value"] == 9

    def test_absent_collaborators_serve_disabled_stubs(self):
        with AdminServer(registry=MetricsRegistry()) as server:
            for route in ("/digest", "/heatmap", "/alerts"):
                status, _, body = _get(server.url + route)
                assert status == 200
                assert json.loads(body)["enabled"] is False


class TestHardening:
    def test_bad_query_parameters_are_json_400s(self, stack):
        server, _ = stack
        for url in ("/digest?n=abc", "/digest?n=-1", "/digest?by=vibes",
                    "/heatmap?by=vibes"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + url)
            assert err.value.code == 400
            payload = json.loads(err.value.read())
            assert payload["error"]
            assert err.value.headers["Content-Type"] == "application/json"

    def test_404_lists_the_routes(self, stack):
        server, _ = stack
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        payload = json.loads(err.value.read())
        assert "/digest" in payload["endpoints"]
        assert "/metrics" in payload["endpoints"]

    def test_writes_are_405_with_allow_header(self, stack):
        server, _ = stack
        request = urllib.request.Request(
            server.url + "/metrics", data=b"x=1", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 405
        assert err.value.headers["Allow"] == "GET, HEAD"
        assert json.loads(err.value.read())["error"]

    def test_head_sends_headers_without_a_body(self, stack):
        server, _ = stack
        request = urllib.request.Request(
            server.url + "/healthz", method="HEAD"
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 200
            assert int(response.headers["Content-Length"]) > 0
            assert response.read() == b""

    def test_every_route_declares_a_content_type(self, stack):
        server, _ = stack
        for route in AdminServer(registry=MetricsRegistry()).routes():
            _, headers, _ = _get(server.url + route)
            expected = ("text/plain" if route == "/metrics"
                        else "application/json")
            assert headers["Content-Type"].startswith(expected), route


class TestLifecycle:
    def test_port_zero_binds_ephemerally(self):
        server = AdminServer(registry=MetricsRegistry())
        assert server.url is None and not server.running
        server.start()
        try:
            host, port = server.address
            assert host == "127.0.0.1" and port > 0
            assert server.url == "http://127.0.0.1:%d" % port
        finally:
            server.stop()

    def test_stop_is_idempotent_and_restart_rejected_while_running(self):
        server = AdminServer(registry=MetricsRegistry()).start()
        with pytest.raises(RuntimeError):
            server.start()
        server.stop()
        server.stop()  # no-op
        assert not server.running

    def test_empty_collaborators_serve_empty_payloads(self):
        with AdminServer(registry=MetricsRegistry()) as server:
            _, _, slow = _get(server.url + "/slowlog")
            _, _, traces = _get(server.url + "/traces")
        assert json.loads(slow)["records"] == []
        assert json.loads(traces) == {"offered": 0, "kept": 0, "traces": []}


class TestServiceIntegration:
    def test_serve_admin_exposes_the_service_registry(self):
        from tests.obs.test_budget import QUERY, make_instance
        from repro.obs.budget import QueryBudget
        from repro.server import DirectoryService

        registry = MetricsRegistry()
        service = DirectoryService(
            make_instance(), page_size=4, metrics=registry,
            tracer=Tracer(), slow_query_seconds=0.0,
        )
        service.bind_anonymous()
        service.search(QUERY)
        # A different query: the first one is now cached, and cache hits
        # are never budget-charged.
        service.search("(dc=com ? sub ? grade=4)", budget=QueryBudget(max_pages=0))
        server = service.serve_admin()
        try:
            _, _, body = _get(server.url + "/metrics")
            # The acceptance bar: the scrape is byte-identical to what
            # ``python -m repro metrics`` prints for the same registry.
            assert body == registry.to_prometheus().encode("utf-8")
            assert b"repro_budget_exceeded_total" in body
            payload = json.loads(_get(server.url + "/healthz")[2])
            assert payload["entries"] == 13
            slow = json.loads(_get(server.url + "/slowlog")[2])
            assert slow["total"] == 2
            traces = json.loads(_get(server.url + "/traces")[2])
            kept_reasons = {r for t in traces["traces"] for r in t["reasons"]}
            assert "budget" in kept_reasons
        finally:
            server.stop()


class TestReplicationHealth:
    def _service(self):
        from tests.obs.test_budget import make_instance
        from repro.server import DirectoryService

        registry = MetricsRegistry()
        return DirectoryService(make_instance(), page_size=4, metrics=registry)

    def _replicated(self):
        from repro.dist import ReplicatedContext, SimulatedNetwork
        from repro.workload import synthetic_schema

        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2,
            network=SimulatedNetwork(), metrics=MetricsRegistry(),
        )
        replicated.add("name=r", ["node"], name="r")
        for index in range(4):
            replicated.add("name=e%d, name=r" % index, ["node"],
                           name="e%d" % index)
        return replicated

    def test_healthz_reports_replication_status(self):
        service = self._service()
        replicated = self._replicated()
        replicated.sync()
        service.attach_replication(replicated, lag_alert=3)
        server = service.serve_admin()
        try:
            payload = json.loads(_get(server.url + "/healthz")[2])
            assert payload["status"] == "ok"
            replication = payload["replication"]
            assert replication["epoch"] == 1
            assert replication["primary"] == "primary"
            assert replication["lag_alert"] == 3
            assert replication["replicas"]["secondary0"]["lag"] == 0
        finally:
            server.stop()

    def test_healthz_degrades_on_replication_lag(self):
        service = self._service()
        replicated = self._replicated()  # never synced: lag 5 > alert 3
        service.attach_replication(replicated, lag_alert=3)
        server = service.serve_admin()
        try:
            payload = json.loads(_get(server.url + "/healthz")[2])
            assert payload["status"] == "degraded"
            assert payload["replication"]["replicas"]["secondary1"]["lag"] == 5
        finally:
            server.stop()

    def test_lag_alert_must_be_non_negative(self):
        service = self._service()
        with pytest.raises(ValueError):
            service.attach_replication(self._replicated(), lag_alert=-1)
