"""Property-based differential testing: hypothesis drives instance shape
and query choice; the external-memory engine must always agree with the
definitional semantics, under any blocking factor and pool size."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import QueryEngine
from repro.engine.optimizer import PlannedEngine, rewrite
from repro.query.semantics import evaluate
from repro.storage.store import DirectoryStore
from repro.workload import RandomQueries, random_instance

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    instance_seed=st.integers(0, 10_000),
    query_seed=st.integers(0, 10_000),
    size=st.integers(5, 70),
    max_children=st.integers(1, 6),
    page_size=st.integers(2, 16),
    buffer_pages=st.integers(2, 8),
    level=st.sampled_from(["l0", "l1", "l2", "l3"]),
)
@settings(**_SETTINGS)
def test_engine_agrees_with_semantics(
    instance_seed, query_seed, size, max_children, page_size, buffer_pages, level
):
    instance = random_instance(instance_seed, size=size, max_children=max_children)
    engine = QueryEngine.from_instance(
        instance, page_size=page_size, buffer_pages=buffer_pages
    )
    query = getattr(RandomQueries(instance, seed=query_seed), level)()
    expected = [str(e.dn) for e in evaluate(query, instance)]
    assert engine.run(query).dns() == expected, str(query)


@given(
    instance_seed=st.integers(0, 10_000),
    query_seed=st.integers(0, 10_000),
    size=st.integers(5, 60),
)
@settings(**_SETTINGS)
def test_planned_engine_agrees(instance_seed, query_seed, size):
    instance = random_instance(instance_seed, size=size)
    store = DirectoryStore.from_instance(instance, page_size=8)
    store.build_indices(("weight", "kind", "name"))
    engine = PlannedEngine(store)
    query = RandomQueries(instance, seed=query_seed).any_level()
    expected = [str(e.dn) for e in evaluate(query, instance)]
    assert engine.run(query).dns() == expected, str(query)


@given(
    instance_seed=st.integers(0, 10_000),
    query_seed=st.integers(0, 10_000),
)
@settings(**_SETTINGS)
def test_rewrite_is_semantics_preserving(instance_seed, query_seed):
    instance = random_instance(instance_seed, size=40)
    query = RandomQueries(instance, seed=query_seed).any_level(depth=2)
    rewritten, _rules = rewrite(query)
    assert [e.dn for e in evaluate(rewritten, instance)] == [
        e.dn for e in evaluate(query, instance)
    ], str(query)
