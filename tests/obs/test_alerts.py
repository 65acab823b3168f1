"""The alert engine: the rule grammar, each rule shape's measurement read
straight from the registry, default rules, and the firing/resolved state
machine -- deterministic under an injected clock."""

import pytest

from repro.obs.alerts import (
    RATE_POINTS,
    AlertEngine,
    default_rules,
    parse_rule,
)
from repro.obs.log import CapturingLogger
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestGrammar:
    def test_quantile_threshold(self):
        rule = parse_rule("p95(repro_planner_qerror) > 4")
        assert rule.kind == "level"
        assert rule.field == "p95" and rule.op == ">" and rule.threshold == 4.0
        assert rule.condition() == "p95(repro_planner_qerror) > 4"

    def test_agg_threshold(self):
        rule = parse_rule("max(repro_replication_lag_records) > 8")
        assert rule.kind == "level" and rule.agg == "max"

    def test_rate_with_for_clause(self):
        rule = parse_rule("rate(repro_searches_total, 60) > 100 for 2")
        assert rule.kind == "rate"
        assert rule.window_s == 60.0 and rule.for_samples == 2

    def test_ratio_with_min_denominator(self):
        rule = parse_rule(
            "repro_cache_lookups_total{outcome=hit} / total < 0.5 min 20"
        )
        assert rule.kind == "ratio"
        assert rule.labels == {"outcome": "hit"}
        assert rule.min_denominator == 20.0

    def test_bare_metric_threshold_with_labels(self):
        rule = parse_rule("repro_searches_total{code=error} >= 1")
        assert rule.kind == "level"
        assert rule.labels == {"code": "error"} and rule.op == ">="

    @pytest.mark.parametrize("bad", [
        "not a rule",
        "rate(repro_x) > 1",            # rate needs a window
        "rate(repro_x, 0) > 1",         # ... a positive one
        "p95(repro_x, 60) > 1",         # only rate takes a window
        "repro_x > 1 min 5",            # min is ratio-only
        "vibes(repro_x) > 1",           # unknown function
        "repro_x / total < 0.5",        # ratio needs numerator labels
        "repro_x > 1 for 0",            # for needs a positive count
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)

    def test_default_rules_cover_planner_replication_and_cache(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "planner-qerror-p95", "replication-lag", "cache-hit-rate-floor",
        }

    def test_default_rules_render_their_conditions(self):
        assert [rule.condition() for rule in default_rules()] == [
            "p95(repro_planner_qerror) > 4",
            "max(repro_replication_lag_records) > 8",
            "repro_cache_lookups_total{outcome=hit} / total < 0.1 min 50",
        ]
        assert {rule.severity for rule in default_rules()} == {"warning"}


@pytest.fixture
def stack():
    registry = MetricsRegistry()
    searches = registry.counter(
        "repro_searches_total", "Searches", labelnames=("code",)
    )
    latency = registry.histogram(
        "repro_search_seconds", "Latency", buckets=(0.001, 0.01, 0.1)
    )
    return registry, searches, latency


class TestMeasurement:
    """What each rule shape reads from the registry."""

    def test_level_reads_a_label_subset_with_sum_max_min(self, stack):
        registry, searches, _ = stack
        searches.inc(3, code="success")
        searches.inc(1, code="error")

        def measure(text):
            return parse_rule(text).measure(registry, 0.0)

        assert measure("repro_searches_total > 0") == 4
        assert measure("repro_searches_total{code=success} > 0") == 3
        assert measure("max(repro_searches_total) > 0") == 3
        assert measure("min(repro_searches_total) > 0") == 1
        assert measure("repro_nope > 0") is None

    def test_histogram_fields_count_sum_and_p95(self, stack):
        registry, _, latency = stack
        for value in (0.002, 0.003, 0.004, 0.02):
            latency.observe(value)

        def measure(text):
            return parse_rule(text).measure(registry, 0.0)

        assert measure("count(repro_search_seconds) > 0") == 4
        assert measure("sum(repro_search_seconds) > 0") == pytest.approx(0.029)
        p95 = measure("p95(repro_search_seconds) > 0")
        assert p95 is not None and p95 > 0
        # A histogram has no plain value; a counter has no quantiles.
        assert measure("repro_search_seconds > 0") is None
        assert measure("p95(repro_searches_total) > 0") is None

    def test_rate_over_the_window_excludes_an_old_point(self, stack):
        registry, searches, _ = stack
        wide = parse_rule("rate(repro_searches_total, 60) > 0")
        narrow = parse_rule("rate(repro_searches_total, 1) > 0")
        searches.inc(10, code="success")
        assert wide.measure(registry, 0.0) is None
        assert narrow.measure(registry, 0.0) is None
        searches.inc(40, code="success")
        assert wide.measure(registry, 5.0) == pytest.approx(8.0)
        # The narrow window excludes the old point: one point -> no rate.
        assert narrow.measure(registry, 5.0) is None

    def test_rate_needs_two_points(self, stack):
        registry, searches, _ = stack
        rule = parse_rule("rate(repro_searches_total, 60) > 0")
        searches.inc(5, code="success")
        assert rule.measure(registry, 0.0) is None
        # Two points at one instant span no time: still no rate.
        assert rule.measure(registry, 0.0) is None

    def test_rate_points_are_bounded(self, stack):
        registry, _, _ = stack
        rule = parse_rule("rate(repro_searches_total, 1000) > 0")
        for step in range(RATE_POINTS + 20):
            rule.measure(registry, float(step))
        assert len(rule.points) == RATE_POINTS
        assert rule.points[0][0] == 20.0
        # Only rate rules keep points.
        assert parse_rule("repro_searches_total > 0").points is None

    def test_ratio_waits_for_the_minimum_denominator(self, stack):
        registry, searches, _ = stack
        rule = parse_rule(
            "repro_searches_total{code=success} / total < 0.5 min 4"
        )
        searches.inc(1, code="error")
        assert rule.measure(registry, 0.0) is None
        searches.inc(3, code="error")
        assert rule.measure(registry, 0.0) == 0.0
        searches.inc(4, code="success")
        assert rule.measure(registry, 0.0) == 0.5


class TestStateMachine:
    def _stack(self, rules, **engine_kw):
        registry = MetricsRegistry()
        clock = FakeClock()
        engine = AlertEngine(registry, rules, clock=clock,
                             metrics=MetricsRegistry(), **engine_kw)
        gauge = registry.gauge("repro_lag", "lag")
        return clock, engine, gauge

    def test_fires_after_for_samples_consecutive_breaches(self):
        clock, engine, gauge = self._stack(
            [parse_rule("repro_lag > 5 for 2", name="lag")]
        )
        gauge.set(9)
        assert engine.evaluate() == []          # streak 1 of 2: pending
        assert engine.firing() == []
        clock.now = 1.0
        changed = engine.evaluate()             # streak 2: fires
        assert [t["to"] for t in changed] == ["firing"]
        assert engine.firing()[0]["name"] == "lag"
        assert changed[0]["ts"] == 1.0          # stamped with the round's time

    def test_one_good_round_resets_the_streak(self):
        clock, engine, gauge = self._stack(
            [parse_rule("repro_lag > 5 for 2", name="lag")]
        )
        for step, value in enumerate((9, 2, 9)):
            clock.now = float(step)
            gauge.set(value)
            assert engine.evaluate() == []
        assert engine.firing() == []

    def test_resolves_and_logs_both_transitions(self):
        log = CapturingLogger(min_level="info")
        clock, engine, gauge = self._stack(
            [parse_rule("repro_lag > 5", name="lag")], log=log
        )
        gauge.set(9)
        engine.evaluate()
        clock.now = 1.0
        gauge.set(1)
        changed = engine.evaluate()
        assert [t["to"] for t in changed] == ["resolved"]
        events = [e["event"] for e in log.events()]
        assert events == ["alert.firing", "alert.resolved"]
        assert engine.status()["firing"] == []

    def test_no_data_never_breaches(self):
        _, engine, _ = self._stack([parse_rule("repro_nope > 5", name="lag")])
        assert engine.evaluate() == []
        assert engine.status()["rules"][0]["state"] == "ok"

    def test_transition_metrics_and_gauge(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        watched = MetricsRegistry()
        gauge = watched.gauge("repro_lag", "lag")
        engine = AlertEngine(
            watched, [parse_rule("repro_lag > 5", name="lag")],
            clock=clock, metrics=registry,
        )
        gauge.set(9)
        engine.evaluate()
        firing_gauge = registry.get("repro_alerts_firing")
        assert firing_gauge.as_dict()["values"][0]["value"] == 1
        clock.now = 1.0
        gauge.set(0)
        engine.evaluate()
        assert firing_gauge.as_dict()["values"][0]["value"] == 0
        transitions = registry.get("repro_alert_transitions_total").as_dict()
        by_to = {
            row["labels"]["to"]: row["value"]
            for row in transitions["values"]
        }
        assert by_to == {"firing": 1, "resolved": 1}

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            AlertEngine(
                MetricsRegistry(),
                [parse_rule("m > 1", name="x"), parse_rule("m > 2", name="x")],
                metrics=MetricsRegistry(),
            )

    def test_deterministic_replay(self):
        """The same injected-clock script produces identical transition
        lists on every run -- the property the E26 benchmark gates."""
        def run():
            clock, engine, gauge = self._stack(
                [parse_rule("rate(repro_lag, 30) > 5", name="burst")]
            )
            trace = []
            for step in range(12):
                clock.now = float(step)
                gauge.set(step * 10 if step < 5 else 50)
                for t in engine.evaluate():
                    trace.append((t["rule"], t["to"], t["ts"]))
            return trace

        first, second = run(), run()
        assert first == second
        assert [(rule, to) for rule, to, _ in first] == [
            ("burst", "firing"), ("burst", "resolved"),
        ]

    def test_observe_is_rate_limited_by_the_injected_clock(self):
        clock = FakeClock()
        engine = AlertEngine(
            MetricsRegistry(), [parse_rule("repro_lag > 5")],
            clock=clock, min_interval_s=1.0, metrics=MetricsRegistry(),
        )
        engine.observe()
        engine.observe()
        assert engine.evaluations == 1
        clock.now = 1.0
        engine.observe()
        assert engine.evaluations == 2
        # An explicit round counts as the interval's round too.
        clock.now = 2.0
        engine.evaluate()
        engine.observe()
        assert engine.evaluations == 3
