"""Threaded hammers for the workload observability plane: the digest
table and heat map sit directly on the (parallel) search path, so their
counts must stay exact under concurrent updates from many threads -- and
every sink must keep reading the *same* search event when eight threads
publish at once."""

import sys
import threading

from tests.obs.test_budget import make_instance
from tests.obs.test_digest import event
from tests.logcap import capture
from tests.meter import Meter
from repro.model.dn import DN
from repro.obs.digest import QueryDigestTable
from repro.obs import heatmap
from repro.obs.heatmap import SubtreeHeatMap
from repro.obs.trace import Tracer
from repro.server import DirectoryService

THREADS = 8
ROUNDS = 200


def _hammer(worker, count=THREADS):
    errors = []

    def guarded(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestDigestHammer:
    def test_counts_are_exact_under_contention(self):
        table = QueryDigestTable(capacity=64)

        def worker(index):
            for round_ in range(ROUNDS):
                table.observe(event(
                    "k%d" % (round_ % 4), "(q%d)" % (round_ % 4),
                    0.001, pages=1, entries=2,
                    via="cache" if round_ % 2 else "engine", qerror=1.5,
                ))

        _hammer(worker)
        total = THREADS * ROUNDS
        assert table.observed == total
        rows = table.top(10)
        assert len(rows) == 4
        assert sum(r.calls for r in rows) == total
        assert sum(r.pages_total for r in rows) == total
        assert sum(r.cache_hits for r in rows) == total // 2

    def test_eviction_churn_never_loses_the_observed_count(self):
        table = QueryDigestTable(capacity=4)

        def worker(index):
            for round_ in range(ROUNDS):
                table.observe(event("k%d-%d" % (index, round_), "(q)", 0.001))

        _hammer(worker)
        assert table.observed == THREADS * ROUNDS
        assert len(table) == 4
        assert table.evicted == THREADS * ROUNDS - 4


class TestHeatmapHammer:
    def test_lifetime_totals_are_exact_under_contention(self):
        heat = SubtreeHeatMap(depth=2, clock=lambda: 0.0)
        subtrees = [
            DN.parse("ou=t%d, dc=com" % index) for index in range(THREADS)
        ]

        def worker(index):
            base = subtrees[index]
            for _ in range(ROUNDS):
                heat.record_read(base, pages=2)
                heat.record_write(base)
                heat.record_shipped(base, entries=3)

        _hammer(worker)
        cells = heat.hottest(THREADS + 1)
        assert len(cells) == THREADS
        assert sum(c["reads_total"] for c in cells) == THREADS * ROUNDS
        assert sum(c["pages_total"] for c in cells) == THREADS * ROUNDS * 2
        assert sum(c["writes_total"] for c in cells) == THREADS * ROUNDS
        assert sum(c["shipped_total"] for c in cells) == THREADS * ROUNDS * 3

    def test_ranking_while_writers_run(self, monkeypatch):
        monkeypatch.setattr(heatmap, "CAPACITY", 8)
        heat = SubtreeHeatMap(depth=1, clock=lambda: 0.0)
        stop = threading.Event()

        def reader(_index):
            while not stop.is_set():
                heat.hottest(5)
                heat.snapshot(3)

        def writer(index):
            try:
                for round_ in range(ROUNDS):
                    heat.record_read(DN.parse("dc=d%d" % (round_ % 12)))
            finally:
                stop.set()

        readers = [
            threading.Thread(target=reader, args=(i,)) for i in range(2)
        ]
        for thread in readers:
            thread.start()
        _hammer(writer, count=4)
        stop.set()
        for thread in readers:
            thread.join()
        assert len(heat) == 8  # capacity held despite 12 distinct keys


class TestSearchEventHammer:
    SEARCHES = 40  # per thread

    def test_sinks_agree_per_event_under_contention(self):
        service = DirectoryService(
            make_instance(), page_size=4, tracer=Tracer(),
            slow_query_seconds=0.0,
        )
        meter = Meter()
        service.bind_anonymous()

        def worker(index):
            for round_ in range(self.SEARCHES):
                hot = "(dc=com ? sub ? grade=%d)" % (4 + round_ % 3)
                cold = "(dc=com ? sub ? uid=t%dr%d)" % (index, round_)
                kind = round_ % 4
                if kind == 0:
                    service.search(hot)  # cached after its first run
                elif kind == 1:
                    service.search(cold)  # a shape nobody asked before
                elif kind == 2:
                    list(service.search_paged(hot, 3))
                else:
                    list(service.search_paged(cold, 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with capture(min_level="info") as log:
                _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
            service.close()

        total = THREADS * self.SEARCHES
        slow = service.slow_queries
        # Ring invariants: exact totals, bounded retention.
        assert slow.total == total and slow.total >= len(slow) == 64
        assert slow.offered == slow.kept == total
        assert service.digest.observed == total
        assert meter("repro_searches_total", code="success") == total
        assert meter("repro_search_seconds") == total
        lines = {line["trace_id"]: line for line in log.events("search")}
        assert len(lines) == total  # one line per search, ids never shared
        assert len(log.events("slow_query")) == total
        # Per retained event: /slowlog record == /traces sample == log line.
        records = {record.trace_id: record for record in slow.records()}
        samples = {sample["trace_id"]: sample for sample in slow.traces()}
        assert len(records) == 64
        assert set(records) == set(samples)  # one ring behind both views
        for trace_id, record in records.items():
            line = lines[trace_id]
            assert (line["rows"], line["code"]) == (record.rows, record.code)
            assert line["pages"] == record.pages
            assert bool(line.get("cached")) == record.cached
        for trace_id, sample in samples.items():
            line, attrs = lines[trace_id], sample["spans"]["attrs"]
            assert sample["reasons"] == ["slow"]
            assert (attrs["rows"], attrs["code"]) == (line["rows"], line["code"])
            # The tree was closed before the event was published.
            assert sample["elapsed_s"] >= sample["spans"]["elapsed_s"] > 0
            assert sample["query"] == records[trace_id].query_text
            assert sample["elapsed_s"] == records[trace_id].elapsed
