"""The query digest table: per-fingerprint aggregation, vias, the
fewest-calls eviction bound, orderings, and the snapshot shape."""

import pytest

from repro.obs.digest import QueryDigestTable
from repro.obs.event import SearchEvent


def event(key, text, elapsed, pages=0, entries=0, via="engine", qerror=None):
    """The finished search the service would hand the table."""
    return SearchEvent(key=key, query_text=text, elapsed=elapsed, pages=pages,
                       rows=entries, via=via, qerror=qerror)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestAggregation:
    def test_one_row_per_fingerprint_with_running_aggregates(self):
        clock = FakeClock()
        table = QueryDigestTable(clock=clock)
        table.observe(event("k1", "(q1)", 0.010, pages=4, entries=3,
                            via="engine", qerror=2.0))
        clock.now += 5
        table.observe(event("k1", "(q1 rewritten)", 0.030, pages=8, entries=5,
                            via="engine", qerror=4.0))
        row = table.get("k1")
        assert row.calls == 2
        assert row.text == "(q1)"  # first spelling wins
        assert row.elapsed_total == pytest.approx(0.040)
        assert row.elapsed_max == pytest.approx(0.030)
        assert row.pages_total == 12
        assert row.entries_total == 8 and row.entries_max == 5
        assert row.qerror_max == 4.0
        assert row.mean_qerror == pytest.approx(3.0)
        assert row.first_seen == 100.0 and row.last_seen == 105.0

    def test_vias_split_into_hit_counters(self):
        table = QueryDigestTable()
        for via in ("engine", "cache", "cache", "superset", "federation"):
            table.observe(event("k", "(q)", 0.001, via=via))
        row = table.get("k")
        assert row.cache_hits == 2
        assert row.superset_hits == 1
        assert row.federated == 1
        assert row.hits == 3  # exact + superset
        assert row.as_dict()["hit_rate"] == pytest.approx(0.6)

    def test_unknown_via_is_rejected(self):
        with pytest.raises(ValueError, match="via"):
            QueryDigestTable().observe(event("k", "(q)", 0.001, via="disk"))

    def test_qerror_none_does_not_count(self):
        table = QueryDigestTable()
        table.observe(event("k", "(q)", 0.001, qerror=None))
        row = table.get("k")
        assert row.qerror_count == 0
        assert row.mean_qerror is None
        assert row.as_dict()["qerror_mean"] is None


class TestBound:
    def test_fewest_calls_row_is_evicted_at_capacity(self):
        clock = FakeClock()
        table = QueryDigestTable(capacity=2, clock=clock)
        for _ in range(3):
            table.observe(event("hot", "(hot)", 0.001))
        table.observe(event("warm", "(warm)", 0.001))
        table.observe(event("warm", "(warm)", 0.001))
        table.observe(event("new", "(new)", 0.001))  # warm (2 calls) < hot (3)
        assert table.evicted == 1
        assert table.get("hot") is not None
        assert table.get("new") is not None
        assert table.get("warm") is None

    def test_ties_evict_least_recently_seen(self):
        clock = FakeClock()
        table = QueryDigestTable(capacity=2, clock=clock)
        table.observe(event("old", "(old)", 0.001))
        clock.now += 1
        table.observe(event("young", "(young)", 0.001))
        clock.now += 1
        table.observe(event("new", "(new)", 0.001))
        assert table.get("old") is None
        assert table.get("young") is not None

    def test_observed_counts_survive_eviction(self):
        table = QueryDigestTable(capacity=1)
        table.observe(event("a", "(a)", 0.001))
        table.observe(event("b", "(b)", 0.001))
        assert table.observed == 2 and table.evicted == 1 and len(table) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryDigestTable(capacity=0)


class TestRanking:
    def _table(self):
        table = QueryDigestTable()
        for _ in range(5):
            table.observe(event("many", "(many)", 0.001, pages=1, qerror=1.0))
        table.observe(event("slow", "(slow)", 0.900, pages=50, qerror=8.0))
        return table

    def test_top_by_calls_and_by_time_disagree(self):
        table = self._table()
        assert table.top(1, by="calls")[0].key == "many"
        assert table.top(1, by="time")[0].key == "slow"
        assert table.top(1, by="pages")[0].key == "slow"
        assert table.top(1, by="qerror")[0].key == "slow"

    def test_unknown_ordering_is_rejected(self):
        with pytest.raises(ValueError, match="by"):
            self._table().top(1, by="vibes")

    def test_snapshot_is_json_ready(self):
        import json

        table = self._table()
        snap = table.snapshot(n=1, by="time")
        json.dumps(snap)  # must not raise
        assert snap["rows"] == 2 and snap["observed"] == 6
        assert snap["by"] == "time"
        assert [r["key"] for r in snap["top"]] == ["slow"]

    def test_reset_clears_rows_and_counters(self):
        table = self._table()
        table.reset()
        assert len(table) == 0 and table.observed == 0
