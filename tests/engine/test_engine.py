"""End-to-end engine tests: the external-memory evaluator is differentially
checked against the definitional semantics at every language level, and the
structural claims of Section 8.2 (pipelined sorted outputs, constant
memory, index-independence) are verified."""

import pytest

from repro.engine import QueryEngine
from repro.query.ast import language_level
from repro.query.semantics import evaluate
from repro.workload import RandomQueries, random_instance


def reference(query, instance):
    return [str(e.dn) for e in evaluate(query, instance)]


@pytest.mark.parametrize("seed", range(12))
def test_differential_all_levels(seed):
    instance = random_instance(seed, size=70)
    engine = QueryEngine.from_instance(instance, page_size=8, buffer_pages=6)
    queries = RandomQueries(instance, seed=seed * 13 + 5)
    for _ in range(10):
        query = queries.any_level()
        assert engine.run(query).dns() == reference(query, instance), str(query)


@pytest.mark.parametrize("seed", range(4))
def test_differential_deep_queries(seed):
    instance = random_instance(seed + 60, size=120, max_children=3)
    engine = QueryEngine.from_instance(instance, page_size=4, buffer_pages=4)
    queries = RandomQueries(instance, seed=seed)
    for _ in range(5):
        query = queries.any_level(depth=3)
        assert engine.run(query).dns() == reference(query, instance), str(query)


def test_differential_with_tiny_buffer_pool():
    """Theorem 8.3's constant-memory claim: a 2-page pool still answers
    every query correctly (just with more physical I/O)."""
    instance = random_instance(77, size=150)
    engine = QueryEngine.from_instance(instance, page_size=4, buffer_pages=2)
    queries = RandomQueries(instance, seed=3)
    for _ in range(12):
        query = queries.any_level()
        assert engine.run(query).dns() == reference(query, instance), str(query)


def test_indices_do_not_change_results():
    instance = random_instance(21, size=100)
    plain = QueryEngine.from_instance(instance, page_size=8)
    indexed = QueryEngine.from_instance(
        instance,
        page_size=8,
        indices=("weight", "level", "kind", "tag", "name"),
    )
    queries = RandomQueries(instance, seed=9)
    for _ in range(15):
        query = queries.any_level()
        assert plain.run(query).dns() == indexed.run(query).dns(), str(query)


def test_query_accepts_text():
    instance = random_instance(1, size=30)
    engine = QueryEngine.from_instance(instance)
    result = engine.run("( ? sub ? objectClass=node)")
    assert len(result) == sum(1 for e in instance if "node" in e.classes)


def test_results_always_sorted():
    instance = random_instance(5, size=90)
    engine = QueryEngine.from_instance(instance, page_size=8)
    queries = RandomQueries(instance, seed=17)
    for _ in range(10):
        result = engine.run(queries.any_level())
        keys = [e.dn.key() for e in result]
        assert keys == sorted(keys)


def test_intermediate_runs_freed():
    """After a deep query the pager holds only the master + index pages --
    no leaked intermediates."""
    instance = random_instance(8, size=80)
    engine = QueryEngine.from_instance(instance, page_size=8)
    resident_before = engine.pager.stats.allocated
    queries = RandomQueries(instance, seed=2)
    for _ in range(10):
        engine.run(queries.any_level(depth=2))
    # Allocation grows (runs are written) but freed pages don't accumulate
    # as live disk pages.
    assert engine.pager.pages_on_disk <= engine.store.page_count + engine.pager.buffer_pages + 4


def test_io_reported_per_query():
    instance = random_instance(4, size=400)
    engine = QueryEngine.from_instance(instance, page_size=8, buffer_pages=2)
    result = engine.run("( ? sub ? kind=alpha)")
    assert result.io.logical_reads > 0
    assert result.elapsed >= 0


@pytest.mark.parametrize("level_method", ["l0", "l1", "l2", "l3"])
def test_language_levels_exercised(level_method):
    instance = random_instance(3, size=60)
    queries = RandomQueries(instance, seed=1)
    query = getattr(queries, level_method)()
    ceiling = int(level_method[1])
    assert language_level(query) <= ceiling
