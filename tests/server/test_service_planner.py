"""The planner in the service path: engine choice, live statistics,
Q-error in the slow-query log, and cache-aware (superset) plans."""

import pytest

import repro.server.service as service_module
from repro.engine.engine import QueryEngine
from repro.engine.optimizer import PlannedEngine
from repro.server import DirectoryService, ResultCode
from repro.workload import balanced_instance

from tests.meter import Meter


@pytest.fixture
def instance():
    return balanced_instance(300, fanout=4, seed=21)


def make_service(instance, **kw):
    return DirectoryService(instance, page_size=8, **kw)


def served_engine(service, query="( ? sub ? objectClass=*)"):
    """The engine an uncached search of ``query`` is evaluated by, and the
    search's result."""
    built = []

    def spy(cls):
        def build(*args, **kwargs):
            built.append(cls(*args, **kwargs))
            return built[-1]
        return build

    with pytest.MonkeyPatch.context() as patch:
        for cls in (QueryEngine, PlannedEngine):
            patch.setattr(service_module, cls.__name__, spy(cls))
        result = service.search(query)
    (engine,) = built
    return engine, result


class TestEngineChoice:
    def test_cost_planner_is_the_default(self, instance):
        service = make_service(instance)
        try:
            assert isinstance(served_engine(service)[0], PlannedEngine)
        finally:
            service.close()

    def test_planner_none_keeps_literal_engine(self, instance):
        service = make_service(instance, planner="none")
        try:
            engine, _ = served_engine(service)
            assert isinstance(engine, QueryEngine)
            assert not isinstance(engine, PlannedEngine)
        finally:
            service.close()

    def test_unknown_planner_rejected(self, instance):
        with pytest.raises(ValueError):
            make_service(instance, planner="magic")

    def test_rewrites_applied_in_service_path(self, instance):
        service = make_service(instance, cache_bytes=0, slow_query_seconds=0.0)
        try:
            text = (
                "(ac ( ? sub ? name=e5) ( ? sub ? name=e1)"
                " ( ? sub ? objectClass=*))"
            )
            assert service.search(text).code == ResultCode.SUCCESS
            event = service.slow_queries.records()[-1]
            assert any("R1" in rule for rule in event.rewrites)
        finally:
            service.close()


class TestLiveStatisticsWiring:
    def test_estimates_track_service_writes(self, instance):
        service = make_service(instance)
        try:
            engine, _ = served_engine(service, "( ? sub ? kind=beta)")
            before = engine.estimator.stats.total_entries
            assert before == 300
            for i in range(20):
                assert service.add(
                    "name=new%d, name=e0" % i, ["node"],
                    {"name": ["new%d" % i], "kind": ["alpha"],
                     "level": [1], "weight": [i]},
                ) == ResultCode.SUCCESS
            # The search replans over the pending overlay: the record
            # listener kept the statistics current, nothing compacted.
            engine, result = served_engine(service, "( ? sub ? kind=alpha)")
            assert sum(e.dn.rdn.canonical().startswith("name=new")
                       for e in result.entries) == 20
            assert service.directory.compactions == 0
            assert service.directory.pending() == 20
            assert engine.estimator.stats.total_entries == 320
        finally:
            service.close()


class TestQErrorFeedback:
    def test_slow_log_carries_qerror(self, instance):
        service = make_service(instance, slow_query_seconds=0.0, cache_bytes=0)
        try:
            service.search("( ? sub ? kind=alpha)")
            records = service.slow_queries.records()
            assert records and records[-1].qerror is not None
            assert records[-1].qerror >= 1.0
            assert "qerror" in records[-1].as_dict()
        finally:
            service.close()

    def test_cache_hit_has_no_qerror(self, instance):
        service = make_service(instance, slow_query_seconds=0.0)
        try:
            service.search("( ? sub ? kind=alpha)")
            result = service.search("( ? sub ? kind=alpha)")
            assert result.cached
            records = service.slow_queries.records()
            assert records[-1].qerror is None
            assert "qerror" not in records[-1].as_dict()
        finally:
            service.close()

    def test_literal_planner_has_no_qerror(self, instance):
        service = make_service(
            instance, planner="none", slow_query_seconds=0.0, cache_bytes=0
        )
        try:
            service.search("( ? sub ? kind=alpha)")
            assert service.slow_queries.records()[-1].qerror is None
        finally:
            service.close()

    def test_qerror_histogram_registered(self, instance):
        service = make_service(instance, cache_bytes=0)
        try:
            meter = Meter()
            service.search("( ? sub ? kind=alpha)")
            assert meter("repro_planner_qerror") == 1
        finally:
            service.close()


class TestSupersetServing:
    def test_narrow_query_served_from_wider_resident(self, instance):
        service = make_service(instance)
        try:
            wide = service.search("( ? sub ? kind=alpha)")
            assert not wide.cached
            narrow = service.search("(name=e1, name=e0 ? sub ? kind=alpha)")
            assert narrow.cached
            assert service.cache.stats.superset_hits == 1
            # Containment semantics: the narrow result is exactly the wide
            # result restricted to the subtree.
            expected = [dn for dn in wide.dns() if dn.endswith("name=e1, name=e0")]
            assert narrow.dns() == expected
        finally:
            service.close()

    def test_superset_result_matches_direct_evaluation(self, instance):
        served = make_service(instance)
        direct = make_service(instance, cache_bytes=0)
        try:
            served.search("( ? sub ? weight<50)")
            query = "(name=e2, name=e0 ? sub ? weight<50)"
            assert served.search(query).dns() == direct.search(query).dns()
        finally:
            served.close()
            direct.close()

    def test_different_filter_not_served(self, instance):
        service = make_service(instance)
        try:
            service.search("( ? sub ? kind=alpha)")
            result = service.search("(name=e1, name=e0 ? sub ? kind=beta)")
            assert not result.cached
            assert service.cache.stats.superset_hits == 0
        finally:
            service.close()

    def test_invalidation_covers_superset_residents(self, instance):
        # A write inside the wide footprint must evict the resident before
        # a narrow query could be served stale from it.
        service = make_service(instance)
        try:
            service.search("( ? sub ? kind=alpha)")
            assert service.add(
                "name=hot, name=e1, name=e0", ["node"],
                {"name": ["hot"], "kind": ["alpha"], "level": [1], "weight": [1]},
            ) == ResultCode.SUCCESS
            narrow = service.search("(name=e1, name=e0 ? sub ? kind=alpha)")
            assert "name=hot, name=e1, name=e0" in narrow.dns()
        finally:
            service.close()
