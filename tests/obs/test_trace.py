"""Span tracing: nesting, exact I/O attribution, and the free disabled
path (ISSUE satellite: spans nest correctly and attribute I/O deltas to
the right operator on a known query tree; the disabled tracer allocates
no spans)."""

import threading

import pytest

from repro.engine.engine import QueryEngine
from repro.obs import trace
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.query.parser import parse_query
from repro.query.semantics import evaluate
from repro.storage.pager import Pager
from repro.workload import random_instance

from tests.server.test_hit_path import _calls

QUERY = "(& ( ? sub ? kind=alpha) ( ? sub ? weight<50))"


@pytest.fixture
def traced():
    instance = random_instance(7, size=300)
    tracer = Tracer()
    engine = QueryEngine.from_instance(instance, page_size=8, tracer=tracer)
    return instance, engine, tracer


class TestSpanTree:
    def test_spans_mirror_the_query_tree(self, traced):
        _instance, engine, tracer = traced
        engine.run(QUERY)
        root = tracer.last_root()
        assert root.name == "execute"
        (merge,) = root.children
        assert merge.name == "op:and"
        assert [child.name for child in merge.children] == [
            "op:atomic", "op:atomic",
        ]

    def test_row_counts_recorded_per_operator(self, traced):
        instance, engine, tracer = traced
        result = engine.run(QUERY)
        merge = tracer.last_root().find("op:and")
        assert merge.attrs["rows"] == len(result)
        expected = len(evaluate(parse_query(QUERY), instance))
        assert len(result) == expected

    def test_exclusive_io_sums_to_root_inclusive(self, traced):
        # The acceptance criterion: the per-operator (exclusive) page
        # transfers of the whole span tree sum to the root's inclusive
        # count -- no I/O is double-counted or lost.
        _instance, engine, tracer = traced
        engine.run(QUERY)
        root = tracer.last_root()
        exclusive_sum = sum(
            span.exclusive("total") for span in root.walk()
        )
        assert exclusive_sum == root.io.total
        assert root.io.total > 0

    def test_root_io_matches_pager_delta(self, traced):
        _instance, engine, tracer = traced
        before = engine.pager.stats.snapshot()
        engine.run(QUERY)
        delta = engine.pager.stats.since(before)
        root = tracer.last_root()
        assert root.io.total == delta.total
        assert root.io.logical_total == delta.logical_total

    def test_leaves_carry_the_scan_cost(self, traced):
        # Atomic leaves do the scanning; the merge's own share is the
        # boolean merge, strictly less than the whole run.
        _instance, engine, tracer = traced
        engine.run(QUERY)
        root = tracer.last_root()
        merge = root.find("op:and")
        leaf_io = sum(
            child.io.total for child in merge.children
        )
        assert leaf_io > 0
        assert merge.exclusive("total") == (
            merge.io.total - leaf_io
        )

    def test_tracing_does_not_change_results(self, traced):
        instance, engine, _tracer = traced
        plain = QueryEngine.from_instance(instance, page_size=8)
        assert engine.run(QUERY).dns() == plain.run(QUERY).dns()


class TestSpanIdentity:
    def test_trace_and_parent_ids_wire_up(self, traced):
        _instance, engine, tracer = traced
        engine.run(QUERY)
        root = tracer.last_root()
        for span in root.walk():
            assert span.trace_id == root.trace_id
        merge = root.children[0]
        assert merge.parent_id == root.span_id
        assert all(c.parent_id == merge.span_id for c in merge.children)

    def test_context_grafts_remote_span(self):
        caller, remote = Tracer(), Tracer()
        with caller.span("search") as parent:
            context = caller.context()
        with remote.span("serve", context=context):
            pass
        served = remote.last_root()
        assert served.trace_id == parent.trace_id
        assert served.parent_id == parent.span_id

    def test_exception_is_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        root = tracer.last_root()
        assert "RuntimeError" in root.attrs["error"]

    def test_root_ring_is_bounded(self, monkeypatch):
        # A live tracer keeps exactly its newest KEEP_ROOTS roots.
        monkeypatch.setattr(trace, "KEEP_ROOTS", 2)
        tracer = Tracer()
        for i in range(5):
            with tracer.span("s%d" % i):
                pass
        assert [s.name for s in tracer.root_spans] == ["s3", "s4"]

    def test_render_and_as_dict(self, traced):
        _instance, engine, tracer = traced
        engine.run(QUERY)
        root = tracer.last_root()
        text = root.render()
        assert "op:and" in text and "io=" in text
        payload = root.as_dict()
        assert payload["name"] == "execute"
        assert payload["stats"]["io"]["logical_reads"] >= 0
        assert len(payload["children"]) == 1


def _on_worker(tracer, parent, name):
    """Open and close one span named ``name`` on a new thread that adopted
    ``parent``."""

    def work():
        token = tracer.adopt(parent)
        try:
            with tracer.span(name):
                pass
        finally:
            tracer.release(token)

    worker = threading.Thread(target=work)
    worker.start()
    worker.join()


class TestGrafting:
    def test_a_worker_span_joins_its_open_parent(self):
        tracer = Tracer()
        with tracer.span("scatter") as scatter:
            _on_worker(tracer, tracer.current, "task")
        (root,) = tracer.root_spans
        assert root is scatter
        (task,) = scatter.children
        assert (task.trace_id, task.parent_id) == (scatter.trace_id, scatter.span_id)

    def test_a_worker_span_outliving_its_parent_is_a_root_with_its_ids(self):
        tracer = Tracer()
        with tracer.span("update") as update:
            parent = tracer.current
        _on_worker(tracer, parent, "maintenance")
        assert [span.name for span in tracer.root_spans] == ["update", "maintenance"]
        maintenance = tracer.root_spans[1]
        assert update.children == []
        assert (maintenance.trace_id, maintenance.parent_id) == (
            update.trace_id, update.span_id,
        )

    def test_context_is_the_adopted_parents_identity(self):
        tracer = Tracer()
        seen = []
        with tracer.span("scatter") as scatter:
            parent = tracer.current

            def work():
                tracer.adopt(parent)
                seen.append(tracer.context())

            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        assert seen == [{"trace_id": scatter.trace_id, "span_id": scatter.span_id}]


class TestSpanCost:
    """Tripwire: the interpreter calls (``_calls``) one span makes over a
    pager's ``IOStats``.  The budgets are the counts when they were set
    (20 and 37, down from 94 and 184 while every span diffed a dict of
    probes through a separate context manager, registered itself in a
    lock-guarded registry and read each counter block's field names off
    its class hierarchy) plus 10 %."""

    @pytest.fixture
    def tracer(self):
        tracer = Tracer()
        tracer.io = Pager().stats
        with tracer.span("warm-up"):
            pass
        return tracer

    def test_a_root_span(self, tracer):
        def root():
            with tracer.span("root"):
                pass

        assert _calls(root) <= 22

    def test_a_nested_pair(self, tracer):
        def pair():
            with tracer.span("root"):
                with tracer.span("child"):
                    pass

        assert _calls(pair) <= 40


class TestDisabledPath:
    def test_null_tracer_span_is_identity(self):
        cm = NULL_TRACER.span("anything", rows=1)
        assert cm is NULL_TRACER
        with cm as span:
            assert span is NULL_TRACER
            assert span.set(rows=2) is NULL_TRACER
        assert NULL_TRACER.context() is None
        assert NULL_TRACER.last_root() is None
        assert NULL_TRACER.root_spans == ()
        assert not NULL_TRACER.enabled

    def test_engine_defaults_to_null_tracer(self):
        engine = QueryEngine.from_instance(random_instance(7, size=60), page_size=8)
        assert engine.tracer is NULL_TRACER

    def test_disabled_run_allocates_no_spans(self, monkeypatch):
        allocations = []
        original = Span.__init__

        def counting(self, *args, **kwargs):
            allocations.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        engine = QueryEngine.from_instance(random_instance(7, size=120), page_size=8)
        engine.run(QUERY)
        assert allocations == []

    def test_null_tracer_is_reused_across_engines(self):
        a = QueryEngine.from_instance(random_instance(1, size=30), page_size=8)
        b = QueryEngine.from_instance(random_instance(2, size=30), page_size=8)
        assert a.tracer is b.tracer is NULL_TRACER
        assert isinstance(a.tracer, NullTracer)
