"""Parallel scatter-gather (the worker-pool execution layer): a parallel
federation must be indistinguishable from the sequential one in
everything but wall time -- same entries in the same order, same network
accounting, same coordinator page I/O -- every spanning leaf of a query
must fan out on its own, and the resilience ladder and tracer must keep
working across worker threads."""

import pytest

from repro.dist import FederatedDirectory
from repro.engine import QueryEngine
from repro.obs.trace import Tracer
from repro.workload import balanced_instance

from tests.dist.faults import FaultInjector, FaultPlan

ATOMIC_SPANNING = "( ? sub ? kind=alpha)"
TREE_SPANNING = "(c ( ? sub ? kind=alpha) ( ? sub ? weight>=40))"
#: Two leaves that each span every server: two scatters per query.
TWO_LEAF_SPANNING = (
    "(& ( ? sub ? kind=alpha) ( ? sub ? weight<50))",
    "(d ( ? sub ? kind=alpha) ( ? sub ? weight<50))",
)


def _build(max_workers=1, network=None, tracer=None, leaf_cache_bytes=0):
    instance = balanced_instance(600, fanout=4, seed=22)
    root = next(iter(instance.roots())).dn
    subnets = [e.dn for e in instance if e.dn.depth() == 2][:4]
    assignments = {"hq": [root]}
    for index, subnet in enumerate(subnets):
        assignments["subnet%d" % index] = [subnet]
    federation = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=16,
        network=network,
        leaf_cache_bytes=leaf_cache_bytes,
        tracer=tracer,
        max_workers=max_workers,
    )
    return instance, federation, root, subnets


@pytest.fixture(scope="module")
def oracle():
    instance, _fed, _root, _subnets = _build()
    engine = QueryEngine.from_instance(instance, page_size=16)
    return {
        query: engine.run(query).dns()
        for query in (ATOMIC_SPANNING, TREE_SPANNING) + TWO_LEAF_SPANNING
    }


class TestDifferential:
    @pytest.mark.parametrize("query", [ATOMIC_SPANNING, TREE_SPANNING])
    def test_parallel_matches_sequential_and_centralised(self, oracle, query):
        _, sequential, _, _ = _build(max_workers=1)
        _, parallel, _, _ = _build(max_workers=4)
        try:
            seq = sequential.query("hq", query)
            par = parallel.query("hq", query)
            assert par.dns() == seq.dns() == oracle[query]
            assert par.messages == seq.messages
            assert par.entries_shipped == seq.entries_shipped
            assert not par.partial and not par.warnings
        finally:
            parallel.close()

    def test_atomic_scatter_coordinator_io_is_identical(self):
        # Remote tasks only touch remote pagers; every coordinator page
        # operation happens at the gather barrier in owner order, so the
        # coordinator's I/O breakdown is bit-identical at any worker count.
        _, sequential, _, _ = _build(max_workers=1)
        _, parallel, _, _ = _build(max_workers=4)
        try:
            seq = sequential.query("hq", ATOMIC_SPANNING)
            par = parallel.query("hq", ATOMIC_SPANNING)
            assert par.io.as_dict() == seq.io.as_dict()
        finally:
            parallel.close()

    def test_max_workers_sizes_the_scatter_pool(self, oracle):
        for workers in (1, 4):
            _, fed, _, _ = _build(max_workers=workers)  # via partition()
            try:
                assert fed.pool.max_workers == workers
                assert fed.pool.parallel == (workers > 1)
                got = fed.query("hq", ATOMIC_SPANNING).dns()
                assert got == oracle[ATOMIC_SPANNING]
            finally:
                fed.close()
        assert FederatedDirectory(fed.schema, max_workers=3).pool.max_workers == 3


class TestFanOut:
    @pytest.mark.parametrize("query", TWO_LEAF_SPANNING)
    def test_each_spanning_leaf_is_its_own_parallel_batch(self, oracle, query):
        # The engine above the leaves evaluates operands in order, so each
        # leaf's remote owners fan out across the whole pool -- one batch
        # per leaf -- and the coordinator sees exactly the sequential
        # page-operation sequence.
        _, sequential, _, _ = _build(max_workers=1)
        _, parallel, _, _ = _build(max_workers=4)
        try:
            for _repeat in range(2):
                seq = sequential.query("hq", query)
                before = parallel.pool.parallel_batches
                par = parallel.query("hq", query)
                assert parallel.pool.parallel_batches - before == 2
                assert par.dns() == seq.dns() == oracle[query]
                assert par.messages == seq.messages
                assert par.entries_shipped == seq.entries_shipped
                assert par.io.as_dict() == seq.io.as_dict()
        finally:
            parallel.close()


class TestZeroOverhead:
    def test_default_federation_never_starts_threads(self):
        _, fed, _, _ = _build()  # max_workers defaults to 1
        for query in (ATOMIC_SPANNING, TREE_SPANNING) + TWO_LEAF_SPANNING:
            fed.query("hq", query)
        assert fed.pool.parallel_batches == 0
        assert fed.pool._executor is None


class TestResilienceUnderParallelism:
    def _crashed_fed(self, max_workers):
        plan = FaultPlan(seed=7).crash("subnet1")
        network = FaultInjector(plan)
        _, fed, _, _ = _build(max_workers=max_workers, network=network)
        fed.enable_resilience(mode="partial")
        return fed

    def test_partial_answer_matches_sequential(self):
        sequential = self._crashed_fed(1)
        parallel = self._crashed_fed(4)
        try:
            seq = sequential.query("hq", ATOMIC_SPANNING)
            par = parallel.query("hq", ATOMIC_SPANNING)
            assert seq.partial and par.partial
            assert par.missing_servers == seq.missing_servers == ["subnet1"]
            # Gathering in owner order keeps the degradation notes
            # deterministic however the workers interleaved.
            assert par.warnings == seq.warnings
            assert par.dns() == seq.dns()
            assert par.retries == seq.retries
        finally:
            parallel.close()

    def test_breakers_are_shared_not_duplicated(self):
        fed = self._crashed_fed(4)
        try:
            fed.query("hq", ATOMIC_SPANNING)
            breaker = fed.breakers["subnet1"]
            failures_after_first = breaker.failures
            assert failures_after_first > 0
            fed.query("hq", ATOMIC_SPANNING)
            # Racing workers must get the same breaker object, so its
            # failure history accumulates across queries.
            assert fed.breakers["subnet1"] is breaker
            assert breaker.failures > failures_after_first
        finally:
            fed.close()


class TestTraceGrafting:
    def test_worker_spans_join_the_coordinator_trace(self):
        tracer = Tracer()
        _, fed, _, subnets = _build(max_workers=4, tracer=tracer)
        try:
            fed.query("hq", ATOMIC_SPANNING)
        finally:
            fed.close()
        root = tracer.last_root()
        assert root is not None and root.name == "fed-query"
        spans = list(root.walk())
        # One connected tree: every span shares the root's trace id.
        assert all(span.trace_id == root.trace_id for span in spans)
        remote = [span for span in spans if span.name == "remote-atomic"]
        assert sorted(span.attrs["server"] for span in remote) == sorted(
            "subnet%d" % i for i in range(len(subnets))
        )
        # Each remote server's own tracer recorded a serve-atomic span
        # that joined the coordinator's trace (propagated trace id,
        # parented under that worker's remote-atomic span).
        remote_ids = {span.span_id for span in remote}
        for index in range(len(subnets)):
            server = fed.servers["subnet%d" % index]
            served = server.tracer.last_root()
            assert served is not None and served.name == "serve-atomic"
            assert served.trace_id == root.trace_id
            assert served.parent_id in remote_ids
        # A span joins the tree only when it closes: none is left open.
        assert all(span.closed for span in spans)
