"""One engine, two collaborators: :class:`QueryEngine` owns every
evaluation method; *where a leaf is answered* (the leaf provider) and
*whether the query is planned first* (the planner) are injected, never
subclassed.  Three guards:

- structural -- nothing in ``repro.*`` subclasses the engine with more
  than a constructor, and the constructor takes no read controls;
- differential -- an explicitly injected local access path is
  bit-identical to the default one, planned and plan-less, and on
  leaves the planner reads over windows
  (the provider contract is ``leaves(query, within=None)``) or by one
  shared scan (the provider's optional ``shared_scan(leaves)``); a
  provider without ``shared_scan`` answers every leaf itself;
- federation -- the coordinator runs the same engine: a one-server
  federation reads the centralised engine's page counts, and a provider
  that fails mid-tree leaks neither pages nor spans.

CI repeats this module (``pytest-repeat``) in the planner-differential
job.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.dist import FederatedDirectory
from repro.engine import QueryEngine
from repro.engine.atomic import evaluate_atomic, shared_scan
from repro.engine.engine import SHARED_SCAN_SPAN
from repro.engine.optimizer import AccessPlanner, PlannedEngine
from repro.obs.trace import Tracer
from repro.workload import RandomQueries, random_instance

from .test_planner_differential import QUERIES_PER_SEED, make_store
from .test_sideways import selections


# -- (a) structural ----------------------------------------------------------


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _defined(cls):
    """Names ``cls`` itself gives a behaviour to: callables and
    descriptors in its own namespace that differ from what it would
    inherit (a rebinding tool that restores an inherited method by
    assignment leaves the *same* function behind -- not an override)."""
    names = set()
    for name, value in vars(cls).items():
        if not (callable(value) or hasattr(value, "__get__")):
            continue
        inherited = next(
            (vars(base)[name] for base in cls.__mro__[1:] if name in vars(base)),
            None,
        )
        if value is not inherited:
            names.add(name)
    return names


def test_no_subclass_overrides_evaluation():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    subclasses = [
        sub for sub in _all_subclasses(QueryEngine)
        if sub.__module__.startswith("repro.")
    ]
    assert PlannedEngine in subclasses
    for sub in subclasses:
        assert _defined(sub) == {"__init__"}, (sub, _defined(sub))


def test_the_engine_takes_no_read_controls():
    """A default budget, size limits, paging and access control are the
    service's; the constructor names only what shapes an evaluation."""
    parameters = list(inspect.signature(QueryEngine.__init__).parameters)
    assert parameters == [
        "self", "store", "use_indices", "tracer", "heatmap", "leaves", "planner",
    ]
    assert len(parameters) - 1 == 6
    assert not hasattr(QueryEngine, "open")


# -- (b) leaf-provider differential ------------------------------------------


class _LocalLeaves:
    """The local access path, injected: each leaf read as
    :meth:`QueryEngine.atomic_run` reads it, and a selection's leaves on
    one base by the same shared scan as :meth:`QueryEngine.shared_scan`."""

    def __init__(self, store, planner=None):
        self.store = store
        self.planner = planner

    def __call__(self, query, within=None):
        use_index = within is None
        if use_index and self.planner is not None:
            use_index = self.planner.plan_leaf(query)[0]
        return evaluate_atomic(self.store, query, use_index, within)

    def shared_scan(self, leaves):
        return shared_scan(self.store, leaves)


def _arms(seed, planned):
    """(default-provider engine, injected-provider engine), each over its
    own identically built store so buffer state evolves in lockstep."""
    _instance, default_store = make_store(seed)
    _instance, injected_store = make_store(seed)
    if not planned:
        return (
            QueryEngine(default_store),
            QueryEngine(injected_store, leaves=_LocalLeaves(injected_store)),
        )
    planner = AccessPlanner(injected_store)
    return (
        PlannedEngine(default_store),
        QueryEngine(
            injected_store,
            planner=planner,
            leaves=_LocalLeaves(injected_store, planner),
        ),
    )


def _trees(seed):
    instance, _store = make_store(seed)
    queries = RandomQueries(instance, seed=seed * 13 + 1)
    return [queries.any_level(depth=2) for _ in range(QUERIES_PER_SEED)]


@pytest.mark.parametrize("planned", [False, True], ids=["plan-less", "planned"])
@pytest.mark.parametrize("seed", range(10))
def test_injected_local_provider_is_bit_identical(seed, planned):
    default, injected = _arms(seed, planned)
    live = default.pager.live_pages
    assert injected.pager.live_pages == live
    for query in _trees(seed):
        want, got = default.run(query), injected.run(query)
        assert got.dns() == want.dns(), str(query)
        assert got.io.as_dict() == want.io.as_dict(), str(query)
        assert default.pager.live_pages == injected.pager.live_pages == live
    assert injected.short_circuits == default.short_circuits


@pytest.mark.parametrize("seed", range(6))
def test_injected_local_provider_is_bit_identical_on_bounded_leaves(seed):
    """Selections whose witness leaves the planner reads over windows, or
    whose leaves it reads by one shared scan: the injected provider gets
    the same ``within`` and the same shared scans, and reads the same
    pages."""
    default, injected = _arms(seed, planned=True)
    provider, bounded, scans = injected.leaves, [], []

    def recording(query, within=None):
        bounded.append(within is not None)
        return provider(query, within)

    def recording_scan(leaves):
        scans.append(len(leaves))
        return provider.shared_scan(leaves)

    recording.shared_scan = recording_scan
    injected.leaves = recording
    live = default.pager.live_pages
    for query in selections(make_store(seed)[0]):
        want, got = default.run(query), injected.run(query)
        assert got.dns() == want.dns(), str(query)
        assert got.io.as_dict() == want.io.as_dict(), str(query)
        assert default.pager.live_pages == injected.pager.live_pages == live
    assert any(bounded) and scans
    assert injected.short_circuits == default.short_circuits > 0


@pytest.mark.parametrize("seed", range(4))
def test_a_provider_without_a_shared_scan_answers_every_leaf(seed):
    """A planned engine whose provider has no ``shared_scan`` (the
    federation's scatter/gather) never reads a node past it: every leaf
    of every selection goes through the provider, with the same
    answers."""
    default, injected = _arms(seed, planned=True)
    local = injected.leaves
    asked = []

    def leaf_only(query, within=None):
        asked.append(query)
        return local(query, within)

    injected.leaves = leaf_only
    default.tracer, injected.tracer = Tracer(), Tracer()
    shared = 0
    for query in selections(make_store(seed)[0]):
        del asked[:]
        want, got = default.run(query), injected.run(query)
        assert got.dns() == want.dns(), str(query)
        shared += _span_names(default).count(SHARED_SCAN_SPAN)
        spans = _span_names(injected)
        assert SHARED_SCAN_SPAN not in spans, str(query)
        assert len(asked) == spans.count("op:atomic"), str(query)
    assert shared  # the default engine did read some of them by one scan


def _span_names(engine):
    return [span.name for span in engine.tracer.last_root().walk()]


# -- (c) the coordinator is the same engine ------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_one_server_federation_reads_the_centralised_page_counts(seed):
    instance = random_instance(seed, size=120)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    fed = FederatedDirectory.partition(
        instance, {"solo": roots}, page_size=8, buffer_pages=6
    )
    central = QueryEngine.from_instance(instance, page_size=8, buffer_pages=6)
    queries = RandomQueries(instance, seed=seed * 13 + 1)
    try:
        for _ in range(QUERIES_PER_SEED):
            query = queries.any_level(depth=2)
            got, want = fed.query("solo", query), central.run(query)
            assert got.dns() == want.dns(), str(query)
            assert got.io.as_dict() == want.io.as_dict(), str(query)
            assert got.messages == 0
    finally:
        fed.close()


def test_failing_provider_leaks_no_pages_and_no_spans():
    _instance, store = make_store(3)
    calls = []

    def flaky(query, within=None):
        calls.append(query)
        if len(calls) == 3:
            raise RuntimeError("owner unreachable")
        return evaluate_atomic(store, query, True, within)

    tracer = Tracer()
    engine = QueryEngine(store, tracer=tracer, leaves=flaky)
    live = store.pager.live_pages
    with pytest.raises(RuntimeError):
        engine.run(
            "(| (& ( ? sub ? kind=alpha) ( ? sub ? weight<50))"
            " (& ( ? sub ? kind=beta) ( ? sub ? level<3)))"
        )
    assert len(calls) == 3
    assert store.pager.live_pages == live
    assert tracer.current is None
    assert "RuntimeError" in tracer.last_root().attrs["error"]
