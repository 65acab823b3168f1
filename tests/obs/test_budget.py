"""Per-query resource budgets: tracker semantics, leak-free engine
cancellation, and the service/federation surfacing of adminLimitExceeded."""

import threading

import pytest

from repro.dist import FederatedDirectory
from repro.engine import QueryEngine
from repro.model.instance import DirectoryInstance
from repro.model.schema import DirectorySchema
from repro.obs.budget import BudgetExceeded, BudgetTracker, QueryBudget
from repro.server import DirectoryService, ResultCode
from repro.storage.pager import Pager
from repro.workload import random_instance

from tests.meter import Meter

QUERY = "(dc=com ? sub ? grade=5)"
MERGE_QUERY = "(a (dc=com ? sub ? grade=4) (dc=com ? sub ? grade=5))"


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


class TestQueryBudget:
    def test_needs_at_least_one_ceiling(self):
        with pytest.raises(ValueError):
            QueryBudget()

    def test_rejects_negative_ceilings(self):
        with pytest.raises(ValueError):
            QueryBudget(max_pages=-1)
        with pytest.raises(ValueError):
            QueryBudget(max_wall_s=-0.5)

    def test_as_dict_holds_only_set_ceilings(self):
        budget = QueryBudget(max_pages=100, max_entries=50)
        assert budget.as_dict() == {"max_pages": 100, "max_entries": 50}


class TestBudgetTracker:
    def test_pages_are_bracketed_not_absolute(self):
        pager = Pager(page_size=4, buffer_pages=2)
        pages = [pager.append_page([i]) for i in range(6)]
        pager.read(pages[0])  # traffic before the query must not count
        tracker = QueryBudget(max_pages=2).start(pager.stats)
        pager.read(pages[1])
        pager.read(pages[2])
        tracker.charge()  # exactly at the ceiling: fine
        pager.read(pages[3])
        with pytest.raises(BudgetExceeded) as err:
            tracker.charge()
        assert err.value.resource == BudgetExceeded.PAGES
        assert err.value.limit == 2 and err.value.used == 3

    def test_entries_ceiling(self):
        tracker = QueryBudget(max_entries=10).start(None)
        tracker.charge(result_entries=10)
        with pytest.raises(BudgetExceeded) as err:
            tracker.charge(result_entries=11)
        assert err.value.resource == BudgetExceeded.ENTRIES

    def test_wall_clock_ceiling_with_injected_clock(self):
        ticks = iter([0.0, 0.05, 0.2])
        tracker = QueryBudget(max_wall_s=0.1).start(None, clock=lambda: next(ticks))
        tracker.charge()  # 0.05s elapsed: under
        with pytest.raises(BudgetExceeded) as err:
            tracker.charge()
        assert err.value.resource == BudgetExceeded.WALL_CLOCK
        assert err.value.used == pytest.approx(0.2)

    def test_error_is_structured_and_joinable(self):
        exc = BudgetExceeded(
            BudgetExceeded.PAGES, 10, 14, query_text="(q)", trace_id="t3"
        )
        assert exc.as_dict() == {
            "resource": "pages", "limit": 10, "used": 14,
            "query": "(q)", "trace_id": "t3",
        }
        assert "pages used 14 of at most 10" in str(exc)


class TestEngineCancellation:
    def test_breach_frees_every_intermediate_run(self):
        engine = QueryEngine.from_instance(
            make_instance(), page_size=4, buffer_pages=4
        )
        resident = engine.pager.live_pages
        with pytest.raises(BudgetExceeded):
            engine.run(MERGE_QUERY, budget=QueryBudget(max_pages=0))
        # The leak check: cancellation returned the pager to its
        # pre-query footprint, with no orphaned intermediate runs.
        assert engine.pager.live_pages == resident

    def test_engine_still_works_after_a_breach(self):
        engine = QueryEngine.from_instance(make_instance(), page_size=4)
        with pytest.raises(BudgetExceeded):
            engine.run(QUERY, budget=QueryBudget(max_pages=0))
        result = engine.run(QUERY)
        assert len(result.entries) == 4

    def test_random_instances_never_leak_on_breach(self):
        for seed in range(4):
            instance = random_instance(seed, size=80)
            engine = QueryEngine.from_instance(instance, page_size=8)
            resident = engine.pager.live_pages
            with pytest.raises(BudgetExceeded):
                engine.run("( ? sub ? objectClass=*)", budget=QueryBudget(max_pages=0))
            assert engine.pager.live_pages == resident


class TestServiceSurface:
    def make_service(self, **kwargs):
        service = DirectoryService(make_instance(), page_size=4, **kwargs)
        service.bind_anonymous()
        return service, Meter()

    def test_breach_returns_admin_limit_exceeded(self):
        service, meter = self.make_service()
        result = service.search(QUERY, budget=QueryBudget(max_pages=0))
        assert result.code == ResultCode.ADMIN_LIMIT_EXCEEDED
        assert result.entries == [] and result.total_size == 0
        assert result.budget_error is not None
        assert result.budget_error.resource == BudgetExceeded.PAGES
        assert result.budget_error.query_text == QUERY
        assert result.warnings and "cancelled" in result.warnings[0]
        assert meter("repro_budget_exceeded_total", resource="pages") == 1

    def test_service_wide_default_budget(self):
        service, _ = self.make_service(budget=QueryBudget(max_pages=0))
        assert service.search(QUERY).code == ResultCode.ADMIN_LIMIT_EXCEEDED
        # A per-search budget overrides the default.
        ok = service.search(QUERY, budget=QueryBudget(max_pages=10_000))
        assert ok.code == ResultCode.SUCCESS

    def test_concurrent_search_cannot_disarm_this_searches_budget(self, monkeypatch):
        """Search A blocks inside its first atomic leaf while search B (no
        budget) runs to completion on another thread: A's budget tracker
        is per-evaluation state and must still be armed when A resumes."""
        from repro.engine import engine as engine_module

        service, _ = self.make_service(cache_bytes=0)
        real = engine_module.evaluate_atomic
        a_in_leaf, b_done = threading.Event(), threading.Event()

        def gated(store, query, *args, **kwargs):
            if threading.current_thread().name == "search-a":
                a_in_leaf.set()
                assert b_done.wait(10)
            return real(store, query, *args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate_atomic", gated)
        results = {}

        def search_a():
            results["a"] = service.search(QUERY, budget=QueryBudget(max_pages=1))

        thread = threading.Thread(target=search_a, name="search-a")
        thread.start()
        try:
            assert a_in_leaf.wait(10)
            results["b"] = service.search(MERGE_QUERY)
        finally:
            b_done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert results["b"].code == ResultCode.SUCCESS
        assert results["a"].code == ResultCode.ADMIN_LIMIT_EXCEEDED

    def test_cache_hits_are_never_charged(self):
        service, _ = self.make_service()
        assert service.search(QUERY).code == ResultCode.SUCCESS
        # The cached replay costs no page I/O, so a zero-page budget holds.
        replay = service.search(QUERY, budget=QueryBudget(max_pages=0))
        assert replay.code == ResultCode.SUCCESS
        assert replay.cached is True

    def test_breach_lands_in_the_slow_query_log(self):
        service, _ = self.make_service(slow_query_seconds=0.0)
        service.search(QUERY, budget=QueryBudget(max_pages=0))
        records = service.slow_queries.records()
        assert len(records) == 1
        assert records[0].rows == 0

    def test_breach_does_not_poison_later_searches(self):
        service, meter = self.make_service()
        service.search(QUERY, budget=QueryBudget(max_pages=0))
        # The breached evaluation must not have cached a partial result.
        ok = service.search(QUERY)
        assert ok.code == ResultCode.SUCCESS and len(ok.entries) == 4
        assert meter("repro_searches_total", code="success") == 1


class TestFederatedBudget:
    def make_federation(self):
        instance = random_instance(29, size=100, forest_roots=2)
        roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
        assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
        fed = FederatedDirectory.partition(
            instance, assignments, page_size=8, leaf_cache_bytes=0,
        )
        return fed, roots

    def test_breach_propagates_from_the_coordinator(self):
        fed, roots = self.make_federation()
        query = "(%s ? sub ? objectClass=*)" % roots[1]
        with pytest.raises(BudgetExceeded):
            fed.query("server0", query, budget=QueryBudget(max_entries=0))
        # The federation stays usable after the cancelled query.
        assert len(fed.query("server0", query).entries) > 0
