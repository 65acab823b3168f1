"""DirectoryService observability: search spans, metrics, the slow-query
log, the one search event every sink reads, and hardened listener
dispatch."""

import gc
import inspect
import types

import pytest

import repro.obs.httpd as httpd_module
import repro.server.service as service_module
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.model.schema import DirectorySchema
from repro.obs.budget import BudgetExceeded, QueryBudget
from repro.obs.event import SearchEvent
from repro.obs.httpd import AdminServer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.stats import StatCounters
from repro.obs.trace import Tracer
from repro.query.ast import AtomicQuery
from repro.server import DirectoryService, ResultCode
from repro.storage.maintenance import UpdatableDirectory

from tests.logcap import capture
from tests.meter import Meter, reading

QUERY = "(dc=com ? sub ? grade=5)"


def make_instance() -> DirectoryInstance:
    schema = DirectorySchema()
    schema.add_attribute("dc", "string")
    schema.add_attribute("uid", "string")
    schema.add_attribute("grade", "int")
    schema.add_class("dcObject", {"dc"})
    schema.add_class("account", {"uid", "grade"})
    instance = DirectoryInstance(schema)
    instance.add("dc=com", ["dcObject"], dc="com")
    for i in range(12):
        instance.add(
            "uid=u%d, dc=com" % i, ["account"], uid="u%d" % i, grade=i % 3 + 4
        )
    return instance


@pytest.fixture
def observed():
    tracer = Tracer()
    service = DirectoryService(
        make_instance(),
        page_size=4,
        tracer=tracer,
        slow_query_seconds=0.0,  # everything is "slow": deterministic log
    )
    service.bind_anonymous()
    return service, tracer, Meter()


class TestSearchSpans:
    def test_search_span_structure(self, observed):
        service, tracer, _meter = observed
        service.search(QUERY)
        root = tracer.last_root()
        assert root.name == "search"
        names = [child.name for child in root.children]
        assert names[0] == "parse"
        assert "cache-lookup" in names
        assert "execute" in names          # uncached: the engine ran
        assert names[-1] == "acl-filter"
        assert root.attrs["code"] == ResultCode.SUCCESS
        assert root.attrs["cached"] is False

    def test_cache_hit_skips_the_engine(self, observed):
        service, tracer, _meter = observed
        service.search(QUERY)
        service.search(QUERY)
        root = tracer.last_root()
        names = [child.name for child in root.children]
        assert "execute" not in names
        assert root.find("cache-lookup").attrs["hit"] is True
        assert root.attrs["cached"] is True

    def test_first_search_spans_carry_io(self, observed):
        # The service binds the tracer to its pager before any engine
        # exists, so the very first search is attributed like the rest.
        service, tracer, _meter = observed
        service.search(QUERY)
        root = tracer.last_root()
        for span in (root, root.find("parse"), root.find("cache-lookup")):
            assert span.io is not None, span.name
        assert root.io.logical_reads > 0

    def test_first_statistics_scan_is_planning_io(self):
        # The first planned engine makes the live statistics' collection
        # scan, one read of the 200-entry run (13 pages of 16): planning's
        # cost, under the plan span, and not the search span's own.
        from repro.workload import balanced_instance

        tracer = Tracer()
        service = DirectoryService(balanced_instance(200), tracer=tracer)
        try:
            service.search("( ? sub ? kind=alpha)")
            first = tracer.last_root()
            assert first.exclusive("logical_total") == 0
            assert first.find("plan").exclusive("logical_total") == 13
            service.search("( ? sub ? kind=beta)")
            second = tracer.last_root()
            assert second.exclusive("logical_total") == 0
            assert second.find("plan").io.logical_total == 0
        finally:
            service.close()

    def test_search_after_write_carries_pending_and_no_compact_span(self, observed):
        service, tracer, meter = observed
        assert service.add(
            "uid=late, dc=com", ["account"], uid="late", grade=5
        ) == ResultCode.SUCCESS
        result = service.search(QUERY)
        assert "uid=late, dc=com" in result.dns()
        root = tracer.last_root()
        assert root.attrs["pending"] == 1
        assert root.find("compact") is None
        assert "execute" in [child.name for child in root.children]
        service.refresh_gauges()
        assert reading("repro_overlay_pending") == 1
        assert meter("repro_overlay_merged_entries_total") >= 1
        assert meter("repro_compactions_total") == 0


class TestSearchMetrics:
    def test_counters_and_histograms_populate(self, observed):
        service, _tracer, meter = observed
        service.search(QUERY)
        service.search(QUERY)
        assert meter("repro_searches_total", code="success") == 2
        assert meter("repro_cache_lookups_total", outcome="miss") == 1
        assert meter("repro_cache_lookups_total", outcome="hit") == 1
        assert meter("repro_search_seconds") == 2
        assert meter("repro_search_result_entries") == 2
        assert meter("repro_search_logical_io") == 1  # uncached only
        service.refresh_gauges()
        assert 0.0 <= reading("repro_buffer_hit_rate") <= 1.0

    def test_exposition_includes_service_metrics(self, observed):
        service, _tracer, meter = observed
        service.search(QUERY)
        text = get_registry().to_prometheus()
        assert meter("repro_searches_total", code="success") == 1
        line = 'repro_searches_total{code="success"} %d' % reading(
            "repro_searches_total", code="success"
        )
        assert line in text.splitlines()
        assert "repro_search_seconds_bucket" in text

    def test_served_gauges_read_the_served_service(self):
        """The point-in-time gauges are unlabelled process series, so
        ``/metrics`` must render the served service's own values, not
        those of whichever directory or service in the process wrote
        last."""
        from repro.dist.replication import ReplicatedContext
        from repro.workload import balanced_instance, synthetic_schema

        instance = balanced_instance(50)
        root = next(iter(instance.roots())).dn
        service = DirectoryService(instance)
        other = DirectoryService(balanced_instance(50), page_size=4, buffer_pages=2)
        admin = service.serve_admin()
        try:
            for i in range(2):
                service.add(root.child("name=p%d" % i), ["node"], name="p%d" % i)
            service.search("( ? sub ? kind=alpha)")
            # Another service searches and another directory commits last.
            other.search("( ? sub ? kind=alpha)")
            replicated = ReplicatedContext("name=r", synthetic_schema(), secondaries=1)
            replicated.add("name=r", ["node"], name="r", kind="alpha")
            lines = admin.metrics_text().splitlines()
            hit_rate = service.directory.store.pager.stats.buffer_hit_rate
            assert hit_rate != other.directory.store.pager.stats.buffer_hit_rate
            assert service.directory.pending() == 2
            assert "repro_overlay_pending 2" in lines
            assert "repro_buffer_hit_rate %s" % _gauge_text(hit_rate) in lines
        finally:
            admin.stop()
            other.close()
            service.close()


def _gauge_text(value):
    """A gauge value as the exposition renders it."""
    from repro.obs.metrics import MetricsRegistry

    gauge = MetricsRegistry().gauge("g", "one value")
    gauge.set(value)
    return gauge.expose()[-1].split(" ", 1)[1]


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_search(self, observed):
        service, _tracer, meter = observed
        service.search(QUERY)
        assert len(service.slow_queries) == 1
        record = service.slow_queries.records()[0]
        assert record.query_text == QUERY
        assert record.pages > 0
        assert meter("repro_slow_queries_total") == 1

    def test_unreachable_threshold_logs_nothing(self):
        service = DirectoryService(
            make_instance(), page_size=4, slow_query_seconds=3600.0,
        )
        service.bind_anonymous()
        service.search(QUERY)
        assert len(service.slow_queries) == 0

    def test_disabled_by_default(self):
        service = DirectoryService(make_instance(), page_size=4)
        service.bind_anonymous()
        service.search(QUERY)
        assert not service.slow_queries.enabled
        assert len(service.slow_queries) == 0


class TestOneRing:
    """One ring keeps the interesting searches: ``/slowlog`` reads its
    slow subset and ``/traces`` renders all of it."""

    def make_service(self, **options):
        service = DirectoryService(
            make_instance(), page_size=4,
            tracer=Tracer(), slow_query_seconds=3600.0, **options
        )
        service.bind_anonymous()
        return service

    def test_a_clean_fast_search_is_never_kept(self):
        service = self.make_service()
        service.search(QUERY)
        service.search(QUERY)
        ring = service.slow_queries
        assert (ring.offered, ring.kept, ring.total, len(ring)) == (2, 0, 0, 0)
        assert ring.traces() == []

    def test_a_slow_search_is_kept_once(self, observed):
        service, _tracer, _meter = observed
        service.search(QUERY)
        ring = service.slow_queries
        (sample,) = ring.traces()
        assert sample["reasons"] == ["slow"]
        assert [event.trace_id for event in ring.records()] == [sample["trace_id"]]
        assert (ring.offered, ring.kept, ring.total) == (1, 1, 1)

    def test_a_budget_breach_is_kept_but_not_slow(self):
        service = self.make_service()
        service.search(QUERY)
        service.search("(dc=com ? sub ? grade=4)", budget=QueryBudget(max_pages=0))
        ring = service.slow_queries
        assert [sample["reasons"] for sample in ring.traces()] == [["budget"]]
        assert ring.records() == [] and ring.total == 0
        assert (ring.offered, ring.kept) == (2, 1)

    def test_a_degraded_search_is_kept_but_not_slow(self):
        from tests.dist.faults import FaultPlan
        from tests.server.test_federation_frontend import make_frontend

        _, service, _, query = make_frontend(
            FaultPlan().crash("server1", 0.0, 1e9), slow_query_seconds=3600.0
        )
        service.search(query)
        ring = service.slow_queries
        (sample,) = ring.traces()
        assert sample["reasons"] == ["degraded"]
        assert sample["query"] == query
        assert ring.records() == [] and (ring.offered, ring.kept) == (1, 1)

    def test_admin_payloads_read_the_one_ring(self, monkeypatch):
        # A registry with no latency histogram: /slowlog leaves the
        # quantiles out (TestGoldenKeys checks them after a search).
        monkeypatch.setattr(httpd_module, "get_registry", MetricsRegistry)
        ring = SlowQueryLog(threshold_seconds=0.01)
        events = [
            SearchEvent(query_text="(clean)", elapsed=0.001, trace_id="t1"),
            SearchEvent(query_text="(slow)", elapsed=0.02, trace_id="t2"),
            SearchEvent(
                query_text="(budget)", elapsed=0.001, trace_id="t3",
                warnings=("cancelled",),
                budget_error=BudgetExceeded(BudgetExceeded.PAGES, 0, 1),
            ),
            SearchEvent(query_text="(partial)", elapsed=0.001, trace_id="t4",
                        warnings=("result is partial",)),
        ]
        for event in events:
            ring.record(event)
        admin = AdminServer(slow_queries=ring)
        slow = admin.slowlog()
        assert set(slow) == {"threshold_s", "total", "records"}
        (record,) = slow["records"]
        assert set(record) == TestGoldenKeys.SLOW_FIXED | {"trace_id"}
        assert record["query"] == "(slow)" and slow["total"] == 1
        traces = admin.traces()
        assert set(traces) == {"offered", "kept", "traces"}
        assert (traces["offered"], traces["kept"]) == (4, 3)
        assert [
            (sample["trace_id"], sample["reasons"]) for sample in traces["traces"]
        ] == [("t2", ["slow"]), ("t3", ["budget"]), ("t4", ["degraded"])]
        assert set(traces["traces"][0]) == {
            "trace_id", "query", "elapsed_s", "reasons", "spans",
        }


class TestSearchPagedEvents:
    def test_a_paged_search_is_observed_exactly_once(self, observed):
        service, _tracer, meter = observed
        pages = list(service.search_paged(QUERY, 3))
        assert [len(page) for page in pages] == [3, 1]
        assert meter("repro_searches_total", code="success") == 1
        assert meter("repro_search_seconds") == 1
        assert service.digest.observed == 1
        assert service.digest.top(1)[0].entries_total == 4
        assert len(service.slow_queries) == 1
        assert service.slow_queries.records()[0].query_text == QUERY

    def test_the_service_budget_stops_an_uncached_paged_search_only(self):
        service = DirectoryService(
            make_instance(), page_size=4, budget=QueryBudget(max_pages=0),
        )
        service.bind_anonymous()
        # Warm the cache under a per-call budget that overrides the default.
        assert service.search(QUERY, budget=QueryBudget(max_pages=10_000)).code \
            == ResultCode.SUCCESS
        # A cached result costs no page I/O: never charged.
        assert sum(len(page) for page in service.search_paged(QUERY, 3)) == 4
        # A page generator has no result code to carry the breach.
        with pytest.raises(BudgetExceeded) as err:
            service.search_paged("(dc=com ? sub ? grade=4)", 3)
        assert err.value.resource == BudgetExceeded.PAGES
        assert err.value.query_text == "(dc=com ? sub ? grade=4)"


@pytest.fixture
def all_sinks():
    """A service with every sink on, the process event log included."""
    service = DirectoryService(
        make_instance(),
        page_size=4,
        tracer=Tracer(),
        slow_query_seconds=0.0,
    )
    service.bind_anonymous()
    with capture(min_level="info") as log:
        yield service, log
    service.close()


#: name -> (warm-up searches, the observed search's arguments, expected
#: code, via and classification).
SCENARIOS = {
    "engine": ([], dict(query=QUERY), ResultCode.SUCCESS, "engine", ["slow"]),
    "cache-hit": ([QUERY], dict(query=QUERY), ResultCode.SUCCESS, "cache", ["slow"]),
    "superset-hit": (
        [QUERY], dict(query="(uid=u1, dc=com ? sub ? grade=5)"),
        ResultCode.SUCCESS, "superset", ["slow"],
    ),
    "size-limited": (
        [], dict(query=QUERY, size_limit=2),
        ResultCode.SIZE_LIMIT_EXCEEDED, "engine", ["slow"],
    ),
    "protocol-error": (
        [], dict(query="(dc=com ? sub ? nosuch=1)", strict=True),
        ResultCode.PROTOCOL_ERROR, None, ["slow"],
    ),
    "budget-breach": (
        [], dict(query=QUERY, budget=QueryBudget(max_pages=0)),
        ResultCode.ADMIN_LIMIT_EXCEEDED, None, ["slow", "budget"],
    ),
}


class TestEverySinkReadsOneEvent:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sinks_agree(self, all_sinks, name):
        service, log = all_sinks
        warmup, arguments, code, via, reasons = SCENARIOS[name]
        for text in warmup:
            service.search(text)
        meter = Meter()
        digested = service.digest.observed

        result = service.search(**arguments)

        event = service.slow_queries.records()[-1]
        record = event.as_dict()
        sample = service.slow_queries.traces()[-1]
        line = log.events("search")[-1]
        slow_line = log.events("slow_query")[-1]
        root = service.tracer.last_root()

        # One trace id.
        assert root.trace_id is not None
        assert (
            record["trace_id"] == sample["trace_id"] == line["trace_id"]
            == slow_line["trace_id"] == sample["spans"]["trace_id"]
            == root.trace_id
        )
        # One latency.
        assert sample["elapsed_s"] == record["elapsed_s"]
        assert line["elapsed_s"] == slow_line["elapsed_s"] == round(
            record["elapsed_s"], 6
        )
        assert meter.sum("repro_search_seconds") == pytest.approx(
            record["elapsed_s"]
        )
        # One page count.
        assert line["pages"] == slow_line["pages"] == record["io_total"]
        evaluated = via in ("engine", "federation")
        assert meter("repro_search_logical_io") == int(evaluated)
        if evaluated:
            assert record["io_total"] > 0
            assert meter.sum("repro_search_logical_io") == record["io_total"]
        # One result size, one code.
        assert result.total_size == record["result_size"] == line["rows"]
        assert meter.sum("repro_search_result_entries") == record["result_size"]
        assert result.code == line["code"] == event.code == code
        assert meter("repro_searches_total", code=code) == 1
        assert result.cached == record["cached"] == bool(line.get("cached"))
        # One text.
        assert record["query"] == sample["query"] == slow_line["query"]
        assert record["query"] == arguments["query"]
        # One classification.
        assert sample["reasons"] == reasons
        assert meter("repro_slow_queries_total") == 1
        breach_lines = [
            e for e in log.events("budget_exceeded")
            if e["trace_id"] == root.trace_id
        ]
        assert len(breach_lines) == int("budget" in reasons)
        if breach_lines:
            assert breach_lines[0]["query"] == record["query"]
            assert breach_lines[0]["used"] == result.budget_error.used
            assert result.budget_error.trace_id == root.trace_id
            assert meter("repro_budget_exceeded_total", resource="pages") == 1
        # The digest folds exactly the searches that evaluated or hit.
        assert event.via == via
        assert service.digest.observed - digested == int(via is not None)
        if via is not None:
            row = service.digest.get(event.key)
            assert row.text == record["query"]
            assert row.entries_max >= record["result_size"]
            if not warmup:
                assert row.calls == 1
                assert row.pages_total == record["io_total"]
                assert row.elapsed_total == record["elapsed_s"]


class TestSearchPathWorkCounters:
    """Deterministic per-search work, counted by monkeypatching."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"snapshot": 0, "since": 0, "render": 0, "fingerprint_render": 0}
        real = dict(
            snapshot=StatCounters.snapshot, since=StatCounters.since,
            render=AtomicQuery.__str__, fingerprint=service_module.fingerprint,
        )
        inside_fingerprint = []

        def snapshot(self):
            counts["snapshot"] += 1
            return real["snapshot"](self)

        def since(self, before):
            counts["since"] += 1
            return real["since"](self, before)

        def render(self):
            counts["fingerprint_render" if inside_fingerprint else "render"] += 1
            return real["render"](self)

        def fingerprint(query):
            inside_fingerprint.append(True)
            try:
                return real["fingerprint"](query)
            finally:
                inside_fingerprint.pop()

        monkeypatch.setattr(StatCounters, "snapshot", snapshot)
        monkeypatch.setattr(StatCounters, "since", since)
        monkeypatch.setattr(AtomicQuery, "__str__", render)
        monkeypatch.setattr(service_module, "fingerprint", fingerprint)
        return counts

    def test_default_sinks_cache_hit_brackets_nothing_renders_nothing(self, counts):
        service = DirectoryService(make_instance(), page_size=4)
        service.bind_anonymous()
        service.search(QUERY)  # evaluates, creates the digest row
        for key in counts:
            counts[key] = 0
        assert service.search(QUERY).cached
        assert counts["snapshot"] == 0 and counts["since"] == 0
        # The digest row exists and nothing retains the event: no render
        # besides the one inside the cache key's normalisation.
        assert counts["render"] == 0
        assert counts["fingerprint_render"] == 1

    def test_all_sinks_cache_hit_renders_at_most_once(self, counts):
        service = DirectoryService(
            make_instance(), page_size=4, slow_query_seconds=0.0,
        )
        service.bind_anonymous()
        with capture(min_level="info") as log:
            service.search(QUERY)
            for key in counts:
                counts[key] = 0
            assert service.search(QUERY).cached
        # Read every retained form of the search: still one render.
        service.slow_queries.as_dicts()
        service.slow_queries.traces()
        assert log.events("slow_query")[-1]["query"] == QUERY
        assert counts["render"] == 1
        assert counts["snapshot"] == 0 and counts["since"] == 0


def _reachable(roots):
    """Every object reachable from ``roots`` through instance state
    (classes, modules and code are not instance state)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


class TestRetention:
    def test_retained_events_hold_no_entries(self, all_sinks):
        service, _log = all_sinks
        for index in range(100):
            grade = 4 + index % 3
            service.search("(dc=com ? sub ? grade=%d)" % grade)
            if index % 10 == 0:
                service.search(
                    "(dc=com ? sub ? grade>=%d)" % grade,
                    budget=QueryBudget(max_pages=0),
                )
                list(service.search_paged("(dc=com ? one ? grade=%d)" % grade, 2))
        retained = service.slow_queries.records()
        assert len(retained) == 64  # the ring is full
        assert any(event.budget for event in retained)
        assert any(event.root is not None for event in retained)
        leaked = [obj for obj in _reachable(retained) if isinstance(obj, Entry)]
        assert leaked == []


class TestGoldenKeys:
    """The payloads' key sets are an interface: fixed keys always
    present, optional keys only when they say something."""

    SLOW_FIXED = {"query", "elapsed_s", "io_total", "cached", "result_size"}

    def test_admin_payloads(self, all_sinks):
        service, _log = all_sinks
        service.search(QUERY)
        service.search(QUERY)
        admin = AdminServer(
            slow_queries=service.slow_queries, digest=service.digest,
        )
        slow = admin.slowlog()
        assert set(slow) == {"threshold_s", "total", "records", "latency_quantiles"}
        engine_record, hit_record = slow["records"]
        assert set(engine_record) == self.SLOW_FIXED | {"trace_id", "qerror"}
        assert set(hit_record) == self.SLOW_FIXED | {"trace_id"}
        traces = admin.traces()
        assert set(traces) == {"offered", "kept", "traces"}
        assert set(traces["traces"][0]) == {
            "trace_id", "query", "elapsed_s", "reasons", "spans",
        }
        digest = admin.digest_payload()
        assert set(digest) == {
            "rows", "capacity", "observed", "evicted", "by", "top", "enabled",
        }
        assert set(digest["top"][0]) == {
            "key", "query", "calls", "cache_hits", "superset_hits", "federated",
            "hit_rate", "elapsed_total_s", "elapsed_mean_s", "elapsed_max_s",
            "pages_total", "pages_mean", "entries_mean", "entries_max",
            "qerror_mean", "qerror_max", "first_seen", "last_seen",
        }

    def test_untraced_local_search_has_only_the_fixed_slowlog_keys(self):
        service = DirectoryService(
            make_instance(), page_size=4, slow_query_seconds=0.0, planner="none",
        )
        service.bind_anonymous()
        service.search(QUERY)
        assert set(service.slow_queries.as_dicts()[0]) == self.SLOW_FIXED

    def test_log_events(self, all_sinks):
        service, log = all_sinks
        base = {"ts", "level", "event"}
        service.search(QUERY)
        service.search(QUERY)
        service.search("(dc=com ? sub ? grade=4)", budget=QueryBudget(max_pages=0))
        engine_line, hit_line, breach_line = log.events("search")
        fixed = base | {"code", "rows", "elapsed_s", "pages", "trace_id"}
        assert set(engine_line) == fixed
        assert set(hit_line) == fixed | {"cached"}
        assert set(breach_line) == fixed | {"warnings"}
        assert set(log.events("slow_query")[0]) == base | {
            "query", "elapsed_s", "pages", "trace_id",
        }
        assert set(log.events("budget_exceeded")[0]) == base | {
            "query", "trace_id", "resource", "limit", "used",
        }

    def test_untraced_log_lines_omit_the_trace_id(self):
        service = DirectoryService(
            make_instance(), page_size=4, slow_query_seconds=0.0,
        )
        service.bind_anonymous()
        with capture(min_level="info") as log:
            service.search(QUERY)
        assert "trace_id" not in log.events("search")[0]
        assert "trace_id" not in log.events("slow_query")[0]


class TestConstructorSurface:
    def test_keyword_set_is_pinned(self):
        """Every knob is a configuration axis somebody has to test: adding
        one should be a visible diff here."""
        parameters = list(inspect.signature(DirectoryService.__init__).parameters)
        assert parameters == [
            "self", "instance", "acl", "page_size", "buffer_pages",
            "cache_bytes", "tracer", "slow_query_seconds", "budget",
            "durable_dir", "wal_fsync", "planner", "digest_capacity",
            "heatmap_depth",
        ]
        assert len(parameters) - 1 == 13


class TestListenerHardening:
    def test_broken_listener_does_not_abort_or_starve(self):
        directory = UpdatableDirectory.from_instance(make_instance(), page_size=4)
        meter = Meter()
        seen = []

        def broken(record):
            raise RuntimeError("boom")

        def recorder(record):
            seen.append((record.kind, str(record.dn), record.subtree))

        directory.add_record_listener(broken)
        directory.add_record_listener(recorder)  # registered *after* broken
        directory.delete("uid=u0, dc=com")
        assert seen == [("delete", "uid=u0, dc=com", False)]
        assert directory.lookup("uid=u0, dc=com") is None
        assert directory.listener_errors == 1
        assert meter("repro_update_listener_errors_total", kind="delete") == 1

        # Compaction listeners go through the same guarded dispatch.
        compacted = []
        directory.add_compaction_listener(broken)
        directory.add_compaction_listener(compacted.append)
        new_store = directory.compact()
        assert compacted == [new_store]
        assert directory.store is new_store
        assert directory.listener_errors == 2
        assert meter("repro_update_listener_errors_total", kind="compact") == 1

    def test_compactions_counted(self):
        directory = UpdatableDirectory.from_instance(make_instance(), page_size=4)
        meter = Meter()
        directory.delete("uid=u1, dc=com")
        directory.compact()
        assert meter("repro_compactions_total") == 1
