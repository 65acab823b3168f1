"""Set-up, the closed-loop clients and the end-to-end metrics."""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.server import DirectoryService

from .workloads import ADD, MODIFY, READBACK, SEARCH, WRITES, Op, Sizes, Workload

PAGE_SIZE = 64
BUFFER_PAGES = 64
SUCCESS = "success"

#: Every set-up is done this many times in a run; ``setup_s`` is the fastest.
SETUPS = 3
MIN_PASSES = 5
#: Passes over the write probe a read-only workload runs after its timed
#: passes.
PROBE_PASSES = 12


def open_service(instance, durable_dir: Optional[str] = None, **overrides):
    """The system under test: every constructor argument at its default
    except the page geometry; a durable service logs without fsync (the
    stated flush policy, identical on both sides of any comparison)."""
    if durable_dir is not None:
        overrides.update(durable_dir=durable_dir, wal_fsync=False)
    return DirectoryService(
        instance, page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES, **overrides
    )


def apply_op(service, op: Op) -> str:
    """Send one scripted op; returns the result code."""
    kind = op.kind
    if kind == SEARCH or kind == READBACK:
        return service.search(op.target).code
    if kind == MODIFY:
        return service.modify(op.target, replace={"weight": [op.arg]})
    if kind == ADD:
        return service.add(op.target, ["node"], op.arg)
    return service.delete(op.target)


class Pass:
    """One pass over a script: each op's latency in script order
    (seconds), the wall time, and what the ops that raised or returned a
    code other than success said."""

    def __init__(self, ops: Sequence[Op], elapsed: List[float], wall: float,
                 errors: List[str]):
        self.ops = ops
        self.elapsed = elapsed
        self.wall = wall
        self.errors = errors


def execute(service, ops: Sequence[Op]) -> Pass:
    """Run ``ops`` closed-loop from one client: the next op is sent when
    the previous one returned."""
    elapsed: List[float] = []
    errors: List[str] = []
    clock = time.perf_counter
    begun = clock()
    for op in ops:
        started = clock()
        try:
            code = apply_op(service, op)
        except Exception as exc:  # a failed op is a datum, not the end of the run
            code = repr(exc)
        elapsed.append(clock() - started)
        if code != SUCCESS:
            errors.append("%s on %r" % (code, op))
    return Pass(ops, elapsed, clock() - begun, errors)


# -- set-up -------------------------------------------------------------------


class Bench:
    """One set-up: the workload's generator plus the open service."""

    def __init__(self, name: str, seed: int, sizes: Sizes, work_dir: str):
        self.workload = Workload(name, seed, sizes)
        self.durable_dir = None
        if self.workload.durable:
            self.durable_dir = os.path.join(work_dir, "durable")
            shutil.rmtree(self.durable_dir, ignore_errors=True)
        self.service = open_service(self.workload.instance, self.durable_dir)
        warm = execute(self.service, self.workload.warmup())
        if warm.errors:
            raise RuntimeError("warm-up failed: %s" % warm.errors[0])

    def close(self) -> None:
        self.service.close()


def timed_setups(name: str, seed: int, sizes: Sizes, work_dir: str,
                 count: int = SETUPS) -> Tuple[Bench, List[float]]:
    """Set up ``count`` times (instance, service, warm-up), keeping the
    last; returns it with every set-up's wall seconds."""
    seconds: List[float] = []
    bench = None
    for _ in range(count):
        if bench is not None:
            bench.close()
            bench = None
            gc.collect()
        started = time.perf_counter()
        bench = Bench(name, seed, sizes, work_dir)
        seconds.append(time.perf_counter() - started)
    return bench, seconds


# -- metrics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e3


class Quiet:
    """Each op's fastest time over the passes that ran it.  Op ``i`` is
    the same op in every pass, and a shared host only ever adds time to it
    -- in bursts of seconds that hit different ops in different passes --
    so the fastest of its timings is the reading nearest the undisturbed
    program, and it moves one for one with a change that makes the op
    slower.  (What this cannot see is a stall the program itself deals out
    at random, to fewer than all passes of an op.)"""

    def __init__(self):
        self.passes: List[Pass] = []
        self.fastest: List[float] = []

    def add(self, done: Pass) -> None:
        self.passes.append(done)
        self.fastest = (
            [min(pair) for pair in zip(self.fastest, done.elapsed)]
            if self.fastest else list(done.elapsed)
        )

    def of(self, *kinds: str) -> List[float]:
        return [
            seconds for op, seconds in zip(self.passes[0].ops, self.fastest)
            if op.kind in kinds
        ]

    def search_metrics(self) -> Dict[str, float]:
        """One closed-loop client completes ops at 1 / (mean latency)."""
        searches = self.of(SEARCH, READBACK)
        return {
            "search_ms_p50": _ms(searches, 0.50),
            "search_ms_p95": _ms(searches, 0.95),
            "ops_per_s": len(self.fastest) / sum(self.fastest),
        }

    def write_metrics(self) -> Dict[str, float]:
        return {
            "write_ms_p50": _ms(self.of(*WRITES), 0.50),
            "read_after_write_ms_p50": _ms(self.of(READBACK), 0.50),
        }


class Measurement:
    """What :func:`measure` hands back: the timed passes, the probe passes
    (read-only workloads) and the cache counters the timed passes moved."""

    def __init__(self):
        self.timed = Quiet()
        self.probes = Quiet()
        self.cache = None

    def metrics(self) -> Dict[str, float]:
        writes = self.probes if self.probes.passes else self.timed
        return dict(self.timed.search_metrics(), **writes.write_metrics())


def passes_for(workload: Workload, seconds: float) -> int:
    """How many passes ``--seconds`` buys.  The script is fixed-size
    (``Sizes.pass_seconds`` on the reference box), so a run's work -- and
    with it every count -- is decided by its arguments alone, never by how
    fast the machine happened to be."""
    sizes, name = workload.sizes, workload.name
    passes = max(MIN_PASSES, int(round(seconds / sizes.pass_seconds[name])))
    return min(passes, sizes.max_passes.get(name, passes))


def measure(bench: Bench, passes: int, probe_passes: int = PROBE_PASSES) -> Measurement:
    """The timed passes; garbage is collected between passes, never
    inside."""
    workload, service = bench.workload, bench.service
    measured = Measurement()
    cache_before = service.cache_stats.snapshot()
    for _ in range(passes):
        ops = workload.next_pass()
        if workload.cold:
            service.cache.clear()
        gc.collect()
        measured.timed.add(execute(service, ops))
    measured.cache = service.cache_stats.since(cache_before)
    if not workload.durable:
        # Read-only scripts hold no writes, yet every workload reports
        # every end-to-end metric: a short write probe after the timed
        # passes supplies the write metrics (never counted in the above).
        for _ in range(probe_passes):
            ops = workload.next_probe_pass()
            gc.collect()
            measured.probes.add(execute(service, ops))
    return measured


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Milliseconds one fixed pure-Python loop takes: the machine's speed
    right now, for telling drift from change."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for index in range(100000):
            acc += index * index % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3
