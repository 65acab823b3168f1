"""The slow-query log: threshold, ring capacity, disabled default."""

from repro.obs import slowlog
from repro.obs.event import SearchEvent
from repro.obs.slowlog import SlowQueryLog


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        event = SearchEvent(query_text="( ? sub ? a=*)", elapsed=99.0)
        assert log.record(event) is None
        assert len(log) == 0

    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_seconds=0.010)
        assert log.record(SearchEvent(query_text="fast", elapsed=0.002)) is None
        record = log.record(SearchEvent(query_text="slow", elapsed=0.020, pages=7,
                                        via="engine", rows=3))
        assert record is not None
        assert [r.query_text for r in log] == ["slow"]
        assert record.pages == 7
        assert record.rows == 3

    def test_ring_keeps_newest(self, monkeypatch):
        monkeypatch.setattr(slowlog, "CAPACITY", 2)
        log = SlowQueryLog(threshold_seconds=0.0)
        for i in range(5):
            log.record(SearchEvent(query_text="q%d" % i, elapsed=1.0))
        assert [r.query_text for r in log.records()] == ["q3", "q4"]
        assert log.total == 5

    def test_as_dicts_round_trips(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        log.record(SearchEvent(query_text="( ? sub ? a=*)", elapsed=0.5, pages=9,
                               via="cache", rows=2))
        (d,) = log.as_dicts()
        assert d == {
            "query": "( ? sub ? a=*)",
            "elapsed_s": 0.5,
            "io_total": 9,
            "cached": True,
            "result_size": 2,
        }


class TestTraceCorrelation:
    def test_trace_id_joins_the_record_to_its_trace(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        log.record(SearchEvent(query_text="(q)", elapsed=0.2, pages=3, trace_id="t42"))
        record = log.records()[0]
        assert record.trace_id == "t42"
        assert record.as_dict()["trace_id"] == "t42"

    def test_trace_id_omitted_when_tracing_is_off(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        log.record(SearchEvent(query_text="(q)", elapsed=0.2, pages=3))
        assert log.records()[0].trace_id is None
        assert "trace_id" not in log.as_dicts()[0]
