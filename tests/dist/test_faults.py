"""Fault injection: deterministic schedules, structured NetworkError
codes, the simulated clock, and the unified DistError hierarchy."""

import pytest

from repro.dist import (
    DistError,
    LocatorError,
    NetworkError,
    ReferralError,
    ReplicationError,
    ServerLocator,
)

from tests.dist.faults import FaultInjector, FaultPlan, RecordingNetwork
from tests.meter import Meter


class TestErrorHierarchy:
    def test_all_dist_errors_share_the_base_and_carry_codes(self):
        for cls in (NetworkError, ReplicationError, ReferralError, LocatorError):
            assert issubclass(cls, DistError)
            error = cls("boom")
            assert error.code == DistError.OTHER

    def test_locator_error_is_still_a_lookup_error(self):
        locator = ServerLocator()
        locator.register("dc=com", "top")
        with pytest.raises(LookupError) as caught:
            locator.locate("dc=org")
        assert caught.value.code == LocatorError.NO_OWNER

    def test_network_error_fields(self):
        error = NetworkError("lost", code=NetworkError.DROPPED, server="s1")
        assert error.code == "dropped"
        assert error.server == "s1"


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(latency_s=-1)

    def test_windows(self):
        plan = FaultPlan().crash("a", 1.0, 2.0).partition("a", "b", 0.0, 5.0)
        assert plan.crashed("a", 1.5)
        assert not plan.crashed("a", 2.0)  # end-exclusive
        assert not plan.crashed("b", 1.5)
        assert plan.partitioned("a", "b", 0.0)
        assert plan.partitioned("b", "a", 4.9)  # symmetric
        assert not plan.partitioned("a", "b", 5.0)


class TestFaultInjector:
    def test_default_plan_matches_plain_network(self):
        plain = RecordingNetwork()
        injected = FaultInjector(keep_log=True)
        for network in (plain, injected):
            network.send("a", "b", "request")
            network.send("b", "a", "result", entry_count=3)
        assert injected.messages == plain.messages
        assert injected.entries_shipped == plain.entries_shipped
        assert injected.log == plain.log
        assert injected.fault_count() == 0

    def test_seeded_drop_schedule_replays_identically(self):
        def run():
            injector = FaultInjector(FaultPlan(seed=42, drop_rate=0.3))
            outcomes = []
            for index in range(50):
                try:
                    injector.send("a", "b", "m%d" % index)
                    outcomes.append("ok")
                except NetworkError as exc:
                    outcomes.append(exc.code)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert "dropped" in first and "ok" in first

    def test_scripted_drop_by_index(self):
        injector = FaultInjector(FaultPlan().drop_message(0, 2))
        with pytest.raises(NetworkError) as caught:
            injector.send("a", "b", "request")
        assert caught.value.code == NetworkError.DROPPED
        injector.send("a", "b", "request")  # index 1 delivers
        with pytest.raises(NetworkError):
            injector.send("a", "b", "request")  # index 2 drops
        assert injector.messages == 1
        assert injector.attempts == 3
        assert injector.faults == {"dropped": 2}

    def test_crash_window_faults_both_directions(self):
        plan = FaultPlan().crash("s1", 0.0, 10.0)
        injector = FaultInjector(plan)
        for source, destination in (("coord", "s1"), ("s1", "coord")):
            with pytest.raises(NetworkError) as caught:
                injector.send(source, destination, "request")
            assert caught.value.code == NetworkError.SERVER_DOWN
            assert caught.value.server == "s1"
        injector.sleep(10.0)
        injector.send("coord", "s1", "request")  # window over
        assert injector.messages == 1

    def test_partition_faults_the_pair_only(self):
        plan = FaultPlan().partition("a", "b")
        injector = FaultInjector(plan)
        with pytest.raises(NetworkError) as caught:
            injector.send("a", "b", "request")
        assert caught.value.code == NetworkError.PARTITIONED
        injector.send("a", "c", "request")
        injector.send("c", "b", "request")
        assert injector.messages == 2

    def test_latency_advances_clock_and_timeouts(self):
        injector = FaultInjector(FaultPlan(latency_s=0.5))
        injector.send("a", "b", "request")
        assert injector.now == pytest.approx(0.5)
        timed = FaultInjector(FaultPlan(latency_s=0.5, timeout_s=0.1))
        with pytest.raises(NetworkError) as caught:
            timed.send("a", "b", "request")
        assert caught.value.code == NetworkError.TIMEOUT

    def test_faults_land_in_metrics(self):
        injector = FaultInjector(FaultPlan().drop_message(0))
        meter = Meter()
        with pytest.raises(NetworkError):
            injector.send("a", "b", "request")
        assert meter("repro_net_faults_total", code="dropped") == 1

    def test_reset_restores_the_schedule(self):
        injector = FaultInjector(
            FaultPlan(seed=3, drop_rate=0.5, latency_s=0.1),
        )
        first = []
        for _ in range(20):
            try:
                injector.send("a", "b", "m")
                first.append("ok")
            except NetworkError:
                first.append("drop")
        injector.reset()
        assert injector.now == 0.0 and injector.attempts == 0
        assert injector.faults == {} and injector.messages == 0
        second = []
        for _ in range(20):
            try:
                injector.send("a", "b", "m")
                second.append("ok")
            except NetworkError:
                second.append("drop")
        assert first == second
