"""The traced run and the per-layer metrics read off its spans.

An untraced and a traced run of the *same* passes, each on a freshly
set-up service, so the only difference between them is the shims:
their ratio is the tracing overhead, and every count below is exact.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Tuple

from .harness import Bench, Pass, calibrate, execute, open_service
from .shims import Tracer
from .workloads import READBACK, SEARCH, WRITES, Sizes

#: metric -> span names whose self time it sums, reported in ms per op.
SELF_TIME = {
    "query.parse_ms": ("query.parse",),
    "query.render_ms": ("query.render",),
    "cache.fingerprint_ms": ("cache.fingerprint",),
    "cache.get_ms": ("cache.get",),
    "cache.put_ms": ("cache.put",),
    "cache.superset_ms": ("cache.superset",),
    "cache.invalidate_ms": ("cache.invalidate",),
    "engine.plan_ms": ("engine.plan",),
    "engine.atomic_ms": ("engine.atomic",),
    "engine.boolean_ms": ("engine.boolean",),
    "engine.hier_ms": ("engine.hier",),
    "engine.agg_ms": ("engine.agg",),
    "engine.eref_ms": ("engine.eref",),
    "engine.run_self_ms": ("engine.run",),
    "storage.scan_ms": ("storage.scan",),
    "storage.fetch_ms": ("storage.fetch",),
    "storage.pager_read_ms": ("storage.pager_read",),
    "storage.write_ms": ("storage.write",),
    "txn.wal_append_ms": ("txn.wal_append",),
    "txn.wal_sync_ms": ("txn.wal_sync",),
    "txn.snapshot_ms": ("txn.snapshot",),
    "security.acl_ms": ("security.acl",),
    "obs.stats_ms": ("obs.stats",),
    "obs.digest_ms": ("obs.digest",),
    "obs.metrics_ms": ("obs.metrics",),
    "obs.slowlog_ms": ("obs.slowlog",),
    "obs.heatmap_ms": ("obs.heatmap",),
    "server.search_self_ms": ("server.search",),
}

#: Per-layer metrics that are counts or ratios of counts: they repeat
#: exactly between two runs with the same seed.
EXACT = frozenset((
    "cache.hit_ratio", "cache.evictions", "cache.rejected",
    "cache.resident_bytes", "engine.scanned_per_result",
    "storage.logical_reads_per_op", "storage.physical_reads_per_op",
    "storage.buffer_hit_ratio", "storage.compactions",
    "storage.rewritten_per_write", "txn.wal_bytes_per_write",
    "txn.wal_syncs_per_write", "txn.recovered_records",
    "security.acl_checks_per_op",
))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _run(bench: Bench) -> List[Pass]:
    """``Sizes.trace_passes`` passes, run as ``harness.measure`` runs them."""
    workload = bench.workload
    done = []
    for _ in range(workload.sizes.trace_passes[workload.name]):
        ops = workload.next_pass()
        if workload.cold:
            bench.service.cache.clear()
        gc.collect()
        done.append(execute(bench.service, ops))
    return done


def traced_run(name: str, seed: int, sizes: Sizes, work_dir: str,
               trace_path: str) -> Tuple[Dict[str, float], List[Pass], List[str]]:
    """Returns (per-layer metrics, untraced + traced passes, notes)."""
    notes: List[str] = []
    calibration = [calibrate()]

    bench = Bench(name, seed, sizes, work_dir)
    plain = _run(bench)
    bench.close()
    del bench
    gc.collect()

    tracer = Tracer()
    recover_s = recovered = 0.0
    with tracer.installed():
        bench = Bench(name, seed, sizes, work_dir)
        service, directory = bench.service, bench.service.directory
        pager = directory.store.pager
        rewritten: List[int] = []
        directory.add_compaction_listener(lambda store: rewritten.append(len(store)))
        wal = getattr(directory, "wal", None)
        cache_before = service.cache_stats.snapshot()
        io_before = pager.stats.snapshot()
        compactions_before = directory.compactions
        wal_before = (wal.flushes, os.path.getsize(wal.path)) if wal else (0, 0)
        tracer.enabled = True
        traced = _run(bench)
        tracer.enabled = False
        cache = service.cache_stats.since(cache_before)
        io = pager.stats.since(io_before)
        compactions = directory.compactions - compactions_before
        wal_after = (wal.flushes, os.path.getsize(wal.path)) if wal else (0, 0)
        resident = service.cache.resident_bytes
        bench.close()
        if bench.durable_dir is not None:
            started = time.perf_counter()
            reopened = open_service(None, bench.durable_dir)
            recover_s = time.perf_counter() - started
            recovered = reopened.directory.recovered_records
            reopened.close()
    calibration.append(calibrate())

    script = [op for done in traced for op in done.ops]
    ops = len(script)
    searches = sum(op.kind in (SEARCH, READBACK) for op in script)
    writes = sum(op.kind in WRITES for op in script)
    self_seconds, calls = tracer.self_seconds(), tracer.calls()
    metrics = {
        metric: sum(self_seconds.get(span, 0.0) for span in spans) * 1e3 / ops
        for metric, spans in SELF_TIME.items()
    }
    compact_total, compact_on_read = tracer.duration_under(
        "storage.compact", "server.search"
    )
    search_ops = {row[2] for row in tracer.spans if row[4] == "server.search"}
    search_total = sum(row[7] for row in tracer.spans if row[2] in search_ops)
    scanned = tracer.sized.get("storage.scan", 0) + tracer.sized.get("storage.fetch", 0)
    metrics.update({
        "cache.hit_ratio": cache.hit_rate,
        "cache.evictions": cache.evictions,
        "cache.rejected": cache.rejected,
        "cache.resident_bytes": resident,
        "engine.scanned_per_result": _ratio(
            scanned, tracer.sized.get("server.search", 0)
        ),
        "storage.logical_reads_per_op": io.logical_reads / ops,
        "storage.physical_reads_per_op": io.reads / ops,
        "storage.buffer_hit_ratio": io.buffer_hit_rate,
        "storage.compact_ms": _ratio(compact_total * 1e3, compactions),
        "storage.compactions": compactions,
        "storage.compact_on_read_ms": compact_on_read * 1e3 / ops,
        "storage.rewritten_per_write": _ratio(sum(rewritten), writes),
        "txn.wal_bytes_per_write": _ratio(wal_after[1] - wal_before[1], writes),
        "txn.wal_syncs_per_write": _ratio(wal_after[0] - wal_before[0], writes),
        "txn.recover_s": recover_s,
        "txn.recovered_records": recovered,
        "security.acl_checks_per_op": calls.get("security.acl", 0) / ops,
        "server.coverage_ratio": 1.0 - _ratio(
            self_seconds.get("server.search", 0.0), search_total
        ),
        "trace.overhead_ratio": (
            sum(done.wall for done in traced) / sum(done.wall for done in plain)
        ),
        "bench.calib_ms": sum(calibration) / len(calibration),
    })
    if abs(calibration[1] - calibration[0]) > 0.10 * min(calibration):
        notes.append(
            "noisy run: calibration loop %.2f ms before, %.2f ms after"
            % tuple(calibration)
        )
    tracer.dump(trace_path, {
        "workload": name, "seed": seed, "entries": sizes.entries,
        "ops": ops, "searches": searches, "writes": writes,
    })
    return metrics, plain + traced, notes
