"""The metrics registry: instruments, labels and exposition formats."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_counts_up(self):
        c = Counter("requests_total", "Requests")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_rejects_decrements(self):
        c = Counter("requests_total", "Requests")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_series_are_independent(self):
        c = Counter("searches_total", "Searches", labelnames=("code",))
        c.inc(code="success")
        c.inc(2, code="noSuchObject")
        assert c.value(code="success") == 1
        assert c.value(code="noSuchObject") == 2
        assert c.value(code="never") == 0

    def test_wrong_labels_raise(self):
        c = Counter("searches_total", "Searches", labelnames=("code",))
        with pytest.raises(ValueError):
            c.inc(outcome="hit")
        with pytest.raises(ValueError):
            c.inc()


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("pool_pages", "Buffered pages")
        g.set(7)
        g.inc(-2)
        assert g.value() == 5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("latency", "Latency", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(5.555)

    def test_exposition_is_cumulative_with_inf(self):
        h = Histogram("latency", "Latency", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(99)
        lines = h.expose()
        assert 'latency_bucket{le="0.01"} 1' in lines
        assert 'latency_bucket{le="0.1"} 2' in lines
        assert 'latency_bucket{le="+Inf"} 3' in lines
        assert "latency_count 3" in lines

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("empty", "no bounds", buckets=())


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", "Hits")
        b = registry.counter("hits_total", "Hits")
        assert a is b
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "X", labelnames=("b",))

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("searches_total", "Searches served",
                         labelnames=("code",)).inc(code="success")
        registry.gauge("hit_rate", "Buffer hit rate").set(0.75)
        text = registry.to_prometheus()
        assert "# HELP searches_total Searches served" in text
        assert "# TYPE searches_total counter" in text
        assert 'searches_total{code="success"} 1' in text
        assert "hit_rate 0.75" in text
        assert text.endswith("\n")

    def test_json_exposition_parses_back(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Hits").inc(3)
        registry.histogram("io", "Page I/O", buckets=(1, 10)).observe(4)
        payload = json.loads(registry.to_json())
        assert payload["hits_total"]["kind"] == "counter"
        assert payload["hits_total"]["values"][0]["value"] == 3
        assert payload["io"]["buckets"] == [1.0, 10.0]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("q_total", "Q", labelnames=("text",)).inc(
            text='say "hi"\nthere'
        )
        text = registry.to_prometheus()
        assert '\\"hi\\"' in text and "\\n" in text


class TestHistogramQuantiles:
    def test_interpolates_inside_the_bucket(self):
        h = Histogram("latency", "Latency", buckets=(10.0, 20.0, 40.0))
        for v in (5, 5, 15, 15, 15, 15, 25, 25, 25, 35):
            h.observe(v)
        # rank(p50) = 5 lands in the (10, 20] bucket, which holds the
        # 3rd..6th observations: 10 + 10 * (5 - 2) / 4 = 17.5.
        assert h.quantile(0.5) == pytest.approx(17.5)
        assert h.quantile(0.0) == 0.0

    def test_overflow_clamps_to_the_top_bound(self):
        h = Histogram("latency", "Latency", buckets=(1.0, 2.0))
        h.observe(50.0)
        h.observe(60.0)
        assert h.quantile(0.99) == 2.0

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("latency", "Latency", buckets=(1.0,))
        assert h.quantile(0.5) is None
        assert h.quantiles() is None

    def test_quantiles_summary_is_ordered(self):
        h = Histogram("latency", "Latency", buckets=(0.01, 0.1, 1.0, 10.0))
        for v in (0.005, 0.02, 0.03, 0.2, 0.4, 2.0):
            h.observe(v)
        summary = h.quantiles()
        assert set(summary) == {"p50", "p95", "p99"}
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_out_of_range_quantile_rejected(self):
        h = Histogram("latency", "Latency", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_labelled_series_have_independent_quantiles(self):
        h = Histogram("io", "IO", buckets=(10.0, 100.0), labelnames=("op",))
        h.observe(5, op="point")
        h.observe(90, op="scan")
        assert h.quantile(0.5, op="point") < h.quantile(0.5, op="scan")

    def test_as_dict_carries_quantiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("io", "IO", buckets=(10.0, 100.0))
        h.observe(5)
        payload = registry.as_dict()
        assert payload["io"]["values"][0]["quantiles"]["p50"] == pytest.approx(
            h.quantile(0.5)
        )
