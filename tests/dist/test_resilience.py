"""Retry, circuit breaking and the degradation ladder, unit level and
wired through the federation against injected faults."""

import pytest

from repro.dist import (
    AvailabilityRouter,
    CircuitBreaker,
    FederatedDirectory,
    NetworkError,
    ReplicatedContext,
    ResiliencePolicy,
    RetryPolicy,
    SimulatedNetwork,
    StaleStore,
)
from repro.query.semantics import evaluate
from repro.workload import random_instance

from tests.dist.faults import FaultInjector, FaultPlan
from tests.meter import Meter


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.5, seed=1)
        waits = [policy.backoff(failures) for failures in (1, 2, 3)]
        for index, wait in enumerate(waits):
            base = 0.1 * 2.0 ** index
            assert base <= wait <= base * 1.5

    def test_jitter_is_seeded(self):
        first = [RetryPolicy(seed=9).backoff(n) for n in (1, 2, 3)]
        second = [RetryPolicy(seed=9).backoff(n) for n in (1, 2, 3)]
        assert first == second

    def test_should_retry_bounds_attempts_and_deadline(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1, now=0.0, deadline=None)
        assert policy.should_retry(2, now=0.0, deadline=None)
        assert not policy.should_retry(3, now=0.0, deadline=None)
        assert policy.should_retry(1, now=4.9, deadline=5.0)
        assert not policy.should_retry(1, now=5.0, deadline=5.0)


class TestCircuitBreaker:
    def test_full_transition_cycle(self):
        meter = Meter()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=10.0, name="s1")
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(1.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(5.0)  # still inside the reset timeout
        assert breaker.allow(11.0)  # half-open probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(11.0)  # only one probe
        breaker.record_success(11.5)
        assert breaker.state == CircuitBreaker.CLOSED
        assert [(f, t) for _, f, t in breaker.transitions] == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed"),
        ]
        assert breaker.open_count() == 1
        assert meter("repro_breaker_transitions_total", server="s1", to="open") == 1
        assert meter("repro_breaker_transitions_total", server="s1", to="closed") == 1

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(2.0)  # half-open
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.open_count() == 2

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED


class TestStaleStore:
    def test_lru_eviction_and_served_count(self):
        store = StaleStore(max_keys=2)
        store.put("a", [1])
        store.put("b", [2])
        assert store.get("a") == (1,)  # refreshes a
        store.put("c", [3])  # evicts b
        assert store.get("b") is None
        assert store.get("c") == (3,)
        assert len(store) == 2
        assert store.served == 2


class TestResiliencePolicy:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(mode="yolo")

    def test_enable_with_kwargs_and_policy_are_exclusive(self):
        fed = _make_fed()[1]
        with pytest.raises(ValueError):
            fed.enable_resilience(ResiliencePolicy(), mode="strict")


def _make_fed(plan=None, seed=23, size=80, leaf_cache_bytes=0):
    """Two-server federation over an injected network; returns
    (instance, fed, network, remote_query) where remote_query targets
    server1's root from server0."""
    instance = random_instance(seed, size=size, forest_roots=2)
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}
    network = FaultInjector(plan or FaultPlan())
    fed = FederatedDirectory.partition(
        instance,
        assignments,
        page_size=8,
        network=network,
        leaf_cache_bytes=leaf_cache_bytes,
    )
    remote_query = "(%s ? sub ? objectClass=*)" % roots[1]
    return instance, fed, network, remote_query


def _oracle(instance, query):
    from repro.query.parser import parse_query

    return [str(e.dn) for e in evaluate(parse_query(query), instance)]


class TestFederatedRetry:
    def test_scripted_drop_is_retried_transparently(self):
        instance, fed, network, query = _make_fed(FaultPlan().drop_message(0))
        fed.enable_resilience(retry=RetryPolicy(max_attempts=3, backoff_s=0.01))
        meter = Meter()
        result = fed.query("server0", query)
        assert result.dns() == _oracle(instance, query)
        assert result.retries == 1
        assert not result.partial and not result.warnings
        assert network.faults == {"dropped": 1}
        assert meter("repro_fed_retries_total", server="server1") == 1
        assert (
            meter("repro_fed_remote_failures_total", server="server1", code="dropped")
            == 1
        )

    def test_backoff_advances_the_simulated_clock(self):
        _, fed, network, query = _make_fed(FaultPlan().drop_message(0))
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.25, jitter=0.0)
        )
        fed.query("server0", query)
        assert network.now == pytest.approx(0.25)

    def test_deadline_stops_retrying_early(self):
        plan = FaultPlan(latency_s=1.0).crash("server1", 0.0, 1e9)
        instance, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(
                max_attempts=50, backoff_s=1.0, jitter=0.0, deadline_s=2.5
            ),
            breaker_failure_threshold=100,
        )
        result = fed.query("server0", query)
        assert result.partial
        # Attempts at t=0, 1, 2; the t=3 attempt would breach the 2.5s
        # deadline, so exactly two retries happened.
        assert result.retries == 2

    def test_partial_result_and_warnings_when_owner_is_down(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        instance, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01), serve_stale=False
        )
        meter = Meter()
        result = fed.query("server0", query)
        assert result.partial
        assert result.missing_servers == ["server1"]
        assert any("serverDown" in warning for warning in result.warnings)
        assert result.dns() == []  # nothing under server1's root is reachable
        assert meter("repro_fed_degraded_total", mode="partial") == 1

    def test_strict_mode_raises_after_exhaustion(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        _, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
            mode="strict",
            serve_stale=False,
        )
        with pytest.raises(NetworkError) as caught:
            fed.query("server0", query)
        assert caught.value.code == NetworkError.SERVER_DOWN

    def test_breaker_short_circuits_a_down_server(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        _, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
            breaker_failure_threshold=2,
            breaker_reset_s=1e6,
            serve_stale=False,
        )
        meter = Meter()
        first = fed.query("server0", query)
        assert first.partial
        assert fed.breakers["server1"].state == CircuitBreaker.OPEN
        attempts_after_first = network.attempts
        second = fed.query("server0", query)
        assert second.partial
        # The open breaker means the second query never touched the network.
        assert network.attempts == attempts_after_first
        assert (
            meter(
                "repro_fed_remote_failures_total",
                server="server1", code=NetworkError.BREAKER_OPEN,
            )
            == 1
        )

    def test_breaker_half_open_recovery(self):
        plan = FaultPlan().crash("server1", 0.0, 0.5)
        instance, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=1),
            breaker_failure_threshold=1,
            breaker_reset_s=1.0,
            serve_stale=False,
        )
        assert fed.query("server0", query).partial  # opens the breaker
        network.sleep(2.0)  # past the reset timeout and the crash window
        recovered = fed.query("server0", query)
        assert not recovered.partial
        assert recovered.dns() == _oracle(instance, query)
        assert fed.breakers["server1"].state == CircuitBreaker.CLOSED


class TestServeStale:
    def test_last_known_good_is_served_with_a_warning(self):
        instance, fed, network, query = _make_fed()
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01), serve_stale=True
        )
        meter = Meter()
        fresh = fed.query("server0", query)
        expected = _oracle(instance, query)
        assert fresh.dns() == expected and not fresh.warnings
        network.plan.crash("server1", network.now, 1e9)
        stale = fed.query("server0", query)
        assert stale.dns() == expected
        assert not stale.partial  # degraded, but not missing data
        assert any("last known good" in warning for warning in stale.warnings)
        assert fed._stale.served == 1
        assert meter("repro_fed_degraded_total", mode="stale") == 1

    def test_stale_serves_survive_cache_invalidation(self):
        """The leaf cache is dropped for correctness; the stale store is
        the last-known-good fallback and deliberately is not."""
        instance, fed, network, query = _make_fed(leaf_cache_bytes=64 * 1024)
        fed.enable_resilience(retry=RetryPolicy(max_attempts=2, backoff_s=0.01))
        expected = fed.query("server0", query).dns()
        fed.refresh_server("server1", [])  # replication refresh drops the cache
        network.plan.crash("server1", network.now, 1e9)
        stale = fed.query("server0", query)
        assert stale.dns() == expected
        assert any("last known good" in warning for warning in stale.warnings)

    def test_degraded_entries_are_not_readmitted_to_the_cache(self):
        instance, fed, network, query = _make_fed(leaf_cache_bytes=64 * 1024)
        fed.enable_resilience(retry=RetryPolicy(max_attempts=2, backoff_s=0.01))
        fed.query("server0", query)
        fed.leaf_cache.invalidate_tag("server1")
        network.plan.crash("server1", network.now, 1e9)
        fed.query("server0", query)  # served stale
        # A cached copy would now answer without warnings -- wrong, the
        # data is degraded.  The stale rung must keep warning.
        again = fed.query("server0", query)
        assert any("last known good" in warning for warning in again.warnings)


class TestReplicaFailover:
    def _attach_replica(self, instance, fed, max_lag=0):
        root = fed.servers["server1"].contexts[0]
        replicated = ReplicatedContext(
            root, instance.schema, secondaries=1, network=SimulatedNetwork()
        )
        for entry in instance:
            if root.is_prefix_of(entry.dn):
                replicated.add_entry(entry)
        replicated.sync()
        router = AvailabilityRouter(replicated)
        fed.attach_replica("server1", router)
        return replicated, router

    def test_failover_serves_full_results_with_a_warning(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        instance, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01), serve_stale=False
        )
        replicated, router = self._attach_replica(instance, fed)
        meter = Meter()
        result = fed.query("server0", query)
        assert not result.partial
        assert result.dns() == _oracle(instance, query)
        assert any("served by replica primary" in w for w in result.warnings)
        assert router.served_by == ["primary"]
        assert meter("repro_fed_degraded_total", mode="replica") == 1

    def test_secondary_takes_over_when_the_replica_primary_is_down(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        instance, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01), serve_stale=False
        )
        replicated, router = self._attach_replica(instance, fed)
        router.mark_down("primary")
        result = fed.query("server0", query)
        assert not result.partial
        assert result.dns() == _oracle(instance, query)
        assert router.served_by == ["secondary0"]

    def test_exhausted_replicas_fall_through_to_partial(self):
        plan = FaultPlan().crash("server1", 0.0, 1e9)
        instance, fed, network, query = _make_fed(plan)
        fed.enable_resilience(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01), serve_stale=False
        )
        replicated, router = self._attach_replica(instance, fed)
        router.mark_down("primary")
        router.mark_down("secondary0")
        result = fed.query("server0", query)
        assert result.partial and result.missing_servers == ["server1"]
        assert any("replica failover failed" in w for w in result.warnings)
        assert any("noLiveReplica" in w for w in result.warnings)


class TestZeroOverheadDefault:
    """With no faults planned, the chaos toolkit must be invisible:
    byte-identical results, message counts and I/O."""

    @pytest.mark.parametrize("seed", range(4))
    def test_injected_network_matches_plain(self, seed):
        from repro.workload import RandomQueries

        instance = random_instance(37, size=120, forest_roots=2)
        roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
        assignments = {"server%d" % i: [root] for i, root in enumerate(roots)}

        plain_fed = FederatedDirectory.partition(
            instance, assignments, page_size=8,
            network=SimulatedNetwork(),
        )
        chaos_fed = FederatedDirectory.partition(
            instance, assignments, page_size=8, network=FaultInjector(),
        )
        chaos_fed.enable_resilience()  # armed, but nothing ever fails

        queries = [RandomQueries(instance, seed=seed).l0() for _ in range(6)]
        for query in queries:
            baseline = plain_fed.query("server0", query)
            chaotic = chaos_fed.query("server0", query)
            assert chaotic.dns() == baseline.dns(), str(query)
            assert chaotic.messages == baseline.messages
            assert chaotic.entries_shipped == baseline.entries_shipped
            assert (chaotic.io.reads, chaotic.io.writes) == (
                baseline.io.reads, baseline.io.writes,
            )
            assert chaotic.retries == 0
            assert not chaotic.partial and not chaotic.warnings
        assert chaos_fed.network.fault_count() == 0
