"""The process event log: JSON-lines schema, level gating, the one
configure entry point, and the zero-cost disabled path."""

import io
import json
import threading

import pytest

from repro.obs.log import LEVELS, LOG, configure

from tests.logcap import capture


class TestEventLogger:
    def test_one_json_object_per_line(self):
        with capture() as log:
            LOG.info("search", code="success", rows=3)
            LOG.warning("slow_query", query="(q)")
        lines = log.lines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert isinstance(first.pop("ts"), float)
        assert first == {
            "level": "info", "event": "search", "code": "success", "rows": 3,
        }

    def test_keys_are_sorted_for_stable_diffs(self):
        with capture() as log:
            LOG.info("e", zebra=1, alpha=2)
        keys = list(json.loads(log.lines()[0]))
        assert keys == sorted(keys)

    def test_none_fields_are_elided(self):
        with capture() as log:
            LOG.info("search", cached=None, retries=None, rows=0)
        event = log.events()[0]
        assert "cached" not in event and "retries" not in event
        assert event["rows"] == 0

    def test_min_level_suppresses(self):
        with capture(min_level="warning") as log:
            LOG.debug("noise")
            LOG.info("noise")
            LOG.warning("kept")
            LOG.error("kept")
        assert [e["level"] for e in log.events()] == ["warning", "error"]

    def test_invalid_min_level_rejected(self):
        with pytest.raises(ValueError):
            configure(io.StringIO(), min_level="loud")
        assert not LOG.enabled

    def test_levels_are_ordered(self):
        assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]

    def test_default_str_serialisation_for_odd_values(self):
        with capture() as log:
            LOG.info("e", dn=complex(1, 2))  # not JSON-native: falls to str()
        assert log.events()[0]["dn"] == "(1+2j)"

    def test_concurrent_writers_never_interleave_lines(self):
        per_thread = 400

        def worker(index):
            for i in range(per_thread):
                LOG.info("tick", worker=index, i=i)

        with capture() as log:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = log.events("tick")  # json.loads would fail on a torn line
        assert len(events) == 8 * per_thread


class TestProcessLog:
    def test_off_by_default_and_a_no_op(self):
        assert LOG.enabled is False and LOG.stream is None
        LOG.debug("e")
        LOG.info("e", anything=1)
        LOG.warning("e")
        LOG.error("e")
        LOG.log("info", "e")

    def test_configure_turns_it_on_and_off(self):
        stream = io.StringIO()
        configure(stream, "info")
        try:
            assert LOG.enabled and LOG.min_level == "info"
            LOG.info("on")
        finally:
            configure(None)
        LOG.info("off")
        assert not LOG.enabled
        assert [json.loads(line)["event"] for line in stream.getvalue().splitlines()] \
            == ["on"]

    def test_capture_restores_the_previous_setting(self):
        with capture(min_level="info") as outer:
            with capture() as inner:
                LOG.debug("inner")
            assert LOG.min_level == "info" and LOG.stream is outer.buffer
            LOG.info("outer")
        assert not LOG.enabled
        assert [e["event"] for e in inner.events()] == ["inner"]
        assert [e["event"] for e in outer.events()] == ["outer"]
