"""DirectoryService observability: search spans, metrics, the slow-query
log, and hardened listener dispatch."""

import pytest

from repro.model.instance import DirectoryInstance
from repro.model.schema import DirectorySchema
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.server import DirectoryService, ResultCode
from repro.storage.maintenance import UpdatableDirectory

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
    registry = MetricsRegistry()
    service = DirectoryService(
        make_instance(),
        page_size=4,
        tracer=tracer,
        metrics=registry,
        slow_query_seconds=0.0,  # everything is "slow": deterministic log
    )
    service.bind_anonymous()
    return service, tracer, registry


class TestSearchSpans:
    def test_search_span_structure(self, observed):
        service, tracer, _registry = observed
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
        service, tracer, _registry = observed
        service.search(QUERY)
        service.search(QUERY)
        root = tracer.last_root()
        names = [child.name for child in root.children]
        assert "execute" not in names
        assert root.find("cache-lookup").attrs["hit"] is True
        assert root.attrs["cached"] is True


    def test_search_after_write_carries_pending_and_no_compact_span(self, observed):
        service, tracer, registry = observed
        assert service.add(
            "uid=late, dc=com", ["account"], uid="late", grade=5
        ) == ResultCode.SUCCESS
        result = service.search(QUERY)
        assert "uid=late, dc=com" in result.dns()
        root = tracer.last_root()
        assert root.attrs["pending"] == 1
        assert root.find("compact") is None
        assert "execute" in [child.name for child in root.children]
        assert registry.get("repro_overlay_pending").value() == 1
        assert registry.get("repro_overlay_merged_entries_total").value() >= 1
        assert registry.get("repro_compactions_total").value() == 0


class TestSearchMetrics:
    def test_counters_and_histograms_populate(self, observed):
        service, _tracer, registry = observed
        service.search(QUERY)
        service.search(QUERY)
        assert registry.get("repro_searches_total").value(code="success") == 2
        lookups = registry.get("repro_cache_lookups_total")
        assert lookups.value(outcome="miss") == 1
        assert lookups.value(outcome="hit") == 1
        assert registry.get("repro_search_seconds").count() == 2
        assert registry.get("repro_search_result_entries").count() == 2
        assert registry.get("repro_search_logical_io").count() == 1  # uncached only
        assert 0.0 <= registry.get("repro_buffer_hit_rate").value() <= 1.0

    def test_exposition_includes_service_metrics(self, observed):
        service, _tracer, registry = observed
        service.search(QUERY)
        text = registry.to_prometheus()
        assert 'repro_searches_total{code="success"} 1' in text
        assert "repro_search_seconds_bucket" in text


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_search(self, observed):
        service, _tracer, registry = observed
        service.search(QUERY)
        assert len(service.slow_queries) == 1
        record = service.slow_queries.records()[0]
        assert record.query_text == QUERY
        assert record.io_total > 0
        assert registry.get("repro_slow_queries_total").value() == 1

    def test_unreachable_threshold_logs_nothing(self):
        service = DirectoryService(
            make_instance(), page_size=4, metrics=MetricsRegistry(),
            slow_query_seconds=3600.0,
        )
        service.bind_anonymous()
        service.search(QUERY)
        assert len(service.slow_queries) == 0

    def test_disabled_by_default(self):
        service = DirectoryService(
            make_instance(), page_size=4, metrics=MetricsRegistry()
        )
        service.bind_anonymous()
        service.search(QUERY)
        assert not service.slow_queries.enabled
        assert len(service.slow_queries) == 0


class TestListenerHardening:
    def test_broken_listener_does_not_abort_or_starve(self):
        registry = MetricsRegistry()
        directory = UpdatableDirectory.from_instance(
            make_instance(), page_size=4, metrics=registry
        )
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
        metric = registry.get("repro_update_listener_errors_total")
        assert metric.value(kind="delete") == 1

        # Compaction listeners go through the same guarded dispatch.
        compacted = []
        directory.add_compaction_listener(broken)
        directory.add_compaction_listener(compacted.append)
        new_store = directory.compact()
        assert compacted == [new_store]
        assert directory.store is new_store
        assert directory.listener_errors == 2
        assert metric.value(kind="compact") == 1

    def test_compactions_counted(self):
        registry = MetricsRegistry()
        directory = UpdatableDirectory.from_instance(
            make_instance(), page_size=4, metrics=registry
        )
        directory.delete("uid=u1, dc=com")
        directory.compact()
        assert registry.get("repro_compactions_total").value() == 1
