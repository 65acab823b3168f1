"""Size limits and paged retrieval."""

import pytest

from repro.engine import QueryEngine
from repro.engine.paging import PagedSearch, run_limited
from repro.obs.budget import BudgetExceeded, QueryBudget
from repro.workload import balanced_instance

QUERY = "( ? sub ? kind=alpha)"


@pytest.fixture(scope="module")
def engine():
    return QueryEngine.from_instance(balanced_instance(800, seed=5), page_size=8)


@pytest.fixture(scope="module")
def full_answer(engine):
    return engine.run(QUERY).dns()


class TestSizeLimit:
    def test_truncation(self, engine, full_answer):
        limited = run_limited(engine, QUERY, size_limit=5)
        assert limited.truncated
        assert len(limited) == 5
        assert limited.total_size == len(full_answer)
        assert limited.dns() == full_answer[:5]

    def test_no_truncation_when_under_limit(self, engine, full_answer):
        limited = run_limited(engine, QUERY, size_limit=len(full_answer) + 10)
        assert not limited.truncated
        assert limited.dns() == full_answer

    def test_bad_limit(self, engine):
        with pytest.raises(ValueError):
            run_limited(engine, QUERY, size_limit=0)


class TestPagedSearch:
    def test_pages_partition_the_answer(self, engine, full_answer):
        cursor = PagedSearch(engine, QUERY, page_entries=7)
        assert cursor.total_size == len(full_answer)
        collected = []
        for page in cursor:
            assert 1 <= len(page) <= 7
            collected.extend(str(e.dn) for e in page)
        assert collected == full_answer
        assert cursor.delivered == len(full_answer)

    def test_next_page_protocol(self, engine, full_answer):
        cursor = PagedSearch(engine, QUERY, page_entries=len(full_answer))
        first = cursor.next_page()
        assert len(first) == len(full_answer)
        assert cursor.next_page() is None
        assert cursor.next_page() is None  # idempotent after close

    def test_context_manager_frees(self, engine):
        with PagedSearch(engine, QUERY, page_entries=3) as cursor:
            cursor.next_page()
        assert cursor.next_page() is None

    def test_empty_answer(self, engine):
        cursor = PagedSearch(engine, "( ? sub ? kind=nosuch)", page_entries=4)
        assert cursor.total_size == 0
        assert cursor.next_page() is None

    def test_bad_page_size(self, engine):
        with pytest.raises(ValueError):
            PagedSearch(engine, QUERY, page_entries=0)


class TestEngineBudgetApplies:
    """Limits and cursors go through the engine's guarded entry: an
    engine-level budget stops them exactly as it stops ``run``."""

    @pytest.fixture
    def budgeted(self):
        return QueryEngine.from_instance(
            balanced_instance(400), page_size=8, budget=QueryBudget(max_pages=1)
        )

    def test_run_limited_is_budgeted(self, budgeted):
        live = budgeted.pager.live_pages
        with pytest.raises(BudgetExceeded):
            budgeted.run(QUERY)
        with pytest.raises(BudgetExceeded):
            run_limited(budgeted, QUERY, size_limit=5)
        assert budgeted.pager.live_pages == live

    def test_paged_search_is_budgeted(self, budgeted):
        live = budgeted.pager.live_pages
        with pytest.raises(BudgetExceeded):
            PagedSearch(budgeted, QUERY, page_entries=5)
        assert budgeted.pager.live_pages == live
