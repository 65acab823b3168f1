"""Shared helpers for the experiment benchmarks.

Each benchmark reproduces one experiment from DESIGN.md's index: it sweeps
a workload size, measures *I/O in the external-memory model* (page
transfers through the pager -- the quantity the paper's theorems bound),
prints a paper-style table, records it in the benchmark's ``extra_info``,
and asserts the claimed asymptotic *shape* (we do not chase the authors'
absolute constants; see EXPERIMENTS.md).

Telemetry: every :func:`record` also persists its table -- and every
:func:`measure_io` its wall-clock duration -- through
:class:`benchmarks.telemetry.BenchEmitter`, producing one machine-readable
``BENCH_<experiment>.json`` per benchmark module under
``benchmarks/results/`` (override with ``REPRO_BENCH_DIR``).  The
experiment name is derived from the calling module's file name
(``test_e13_boolean.py`` -> ``e13_boolean``), so existing benchmarks feed
the pipeline without per-call changes.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.storage.pager import Pager
from repro.storage.runs import Run, run_from_iterable
from repro.workload import balanced_instance, random_instance

from .telemetry import BenchEmitter

PAGE_SIZE = 16
BUFFER_PAGES = 6

#: The process-wide emitter every benchmark module reports into.
EMITTER = BenchEmitter()


def _caller_experiment(depth: int = 2) -> str:
    """The experiment name of the benchmark module ``depth`` frames up
    (``benchmarks/test_e13_boolean.py`` -> ``e13_boolean``)."""
    frame = sys._getframe(depth)
    path = frame.f_globals.get("__file__", "")
    name = os.path.splitext(os.path.basename(path))[0]
    if name.startswith("test_"):
        name = name[len("test_"):]
    return name or "adhoc"


def fresh_pager(page_size: int = PAGE_SIZE, buffer_pages: int = BUFFER_PAGES) -> Pager:
    return Pager(page_size=page_size, buffer_pages=buffer_pages)


def operand_lists(seed: int, size: int, lists: int = 2, fraction: float = 0.5):
    """A random instance of ``size`` entries plus ``lists`` sorted operand
    subsets of roughly ``fraction`` of the entries each."""
    instance = random_instance(seed, size=size)
    entries = list(instance)
    rng = random.Random(seed * 31 + lists)
    subsets = []
    for _ in range(lists):
        count = int(len(entries) * fraction)
        subset = rng.sample(entries, count)
        subsets.append(sorted(subset, key=lambda e: e.dn.key()))
    return instance, subsets


def as_runs(pager: Pager, subsets) -> List[Run]:
    return [run_from_iterable(pager, subset) for subset in subsets]


def measure_io(pager: Pager, fn: Callable[[], object]) -> Tuple[object, int, int]:
    """Run ``fn``; return (result, logical page accesses, physical
    transfers).  Logical accesses are the model-level cost (independent of
    buffer luck); physical transfers show the buffer pool at work.  The
    wall-clock duration feeds the experiment's telemetry summary."""
    pager.flush()
    before = pager.stats.snapshot()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    delta = pager.stats.since(before)
    EMITTER.add_timing(_caller_experiment(), elapsed)
    return result, delta.logical_reads + delta.logical_writes, delta.total


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    print("\n== %s ==" % title)
    widths = [
        max(len(str(header[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    print("  " + "  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))


def growth_ratios(ns: Sequence[int], costs: Sequence[float]) -> List[float]:
    """cost ratio per size doubling; ~2 means linear, ~4 means quadratic."""
    return [
        costs[i + 1] / max(costs[i], 1) for i in range(len(costs) - 1)
    ]


def assert_linear(ns: Sequence[int], costs: Sequence[float], slack: float = 1.6):
    """Every doubling of n multiplies cost by at most ``2 * slack``."""
    for i, ratio in enumerate(growth_ratios(ns, costs)):
        size_ratio = ns[i + 1] / ns[i]
        assert ratio <= size_ratio * slack, (
            "superlinear growth: n %d->%d cost ratio %.2f" % (ns[i], ns[i + 1], ratio)
        )


def assert_superlinear(ns: Sequence[int], costs: Sequence[float], floor: float = 2.5):
    """At least one doubling grows cost by more than ``floor``x (the
    quadratic baselines)."""
    assert max(growth_ratios(ns, costs)) >= floor, (
        "expected superlinear growth, got ratios %s" % growth_ratios(ns, costs)
    )


def record(benchmark, title: str, header, rows) -> None:
    """Print the paper-style table, attach it to the pytest-benchmark
    ``extra_info`` and persist it as ``BENCH_<experiment>.json``."""
    print_table(title, header, rows)
    row_dicts = [dict(zip(header, row)) for row in rows]
    benchmark.extra_info[title] = row_dicts
    EMITTER.emit(
        _caller_experiment(),
        title,
        row_dicts,
        meta={"page_size": PAGE_SIZE, "buffer_pages": BUFFER_PAGES},
    )
