"""Trace propagation into the maintenance agent: background work must
join the submitting request's trace, not start an orphan one."""

import pytest

from repro.obs.trace import Tracer
from repro.txn.agent import MaintenanceAgent


@pytest.fixture
def agent_stack():
    tracer = Tracer()
    agent = MaintenanceAgent(tracer=tracer).start()
    yield tracer, agent
    agent.stop()


class TestTracePropagation:
    def test_background_span_joins_the_submitters_trace(self, agent_stack):
        tracer, agent = agent_stack
        with tracer.span("update") as update_span:
            agent.submit("compact", lambda: None)
        agent.drain()
        spans = tracer.root_spans
        root = next(s for s in spans if s.name == "update")
        # The maintenance span grafted under the foreground update: same
        # trace id, parented on the update span, run on another thread.
        maintenance = next(s for s in spans if s.name == "maintenance.compact")
        assert maintenance.trace_id == root.trace_id
        assert maintenance.parent_id == root.span_id
        assert maintenance.attrs["kind"] == "compact"

    def test_submission_outside_any_span_starts_a_fresh_trace(
        self, agent_stack
    ):
        tracer, agent = agent_stack
        agent.submit("checkpoint", lambda: None)
        agent.drain()
        span = next(
            s for s in tracer.root_spans if s.name == "maintenance.checkpoint"
        )
        assert span.parent_id is None

    def test_worker_context_is_released_between_requests(self, agent_stack):
        tracer, agent = agent_stack
        with tracer.span("first"):
            agent.submit("compact", lambda: None)
        agent.drain()
        # A traceless submission after a traced one must not inherit the
        # stale context left by the previous request.
        agent.submit("checkpoint", lambda: None)
        agent.drain()
        checkpoint = next(
            s for s in tracer.root_spans if s.name == "maintenance.checkpoint"
        )
        first = next(s for s in tracer.root_spans if s.name == "first")
        assert checkpoint.trace_id != first.trace_id

    def test_failures_still_release_the_adopted_context(self, agent_stack):
        tracer, agent = agent_stack

        def boom():
            raise RuntimeError("boom")

        with tracer.span("update"):
            agent.submit("compact", boom)
        agent.drain()
        assert agent.failures == 1
        agent.submit("checkpoint", lambda: None)
        agent.drain()
        checkpoint = next(
            s for s in tracer.root_spans if s.name == "maintenance.checkpoint"
        )
        assert checkpoint.parent_id is None

    def test_default_null_tracer_keeps_the_agent_working(self):
        agent = MaintenanceAgent().start()
        try:
            done = []
            agent.submit("compact", lambda: done.append(1))
            agent.drain()
            assert done == [1]
        finally:
            agent.stop()
