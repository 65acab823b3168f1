"""Readers vs one writer vs background compaction, over the pending
overlay: every read is *prefix-consistent* -- a view at lsn ``n`` answers
exactly as the model does after the first ``n`` writes, whatever the
writer and the :class:`~repro.txn.agent.MaintenanceAgent` (compacting at
``auto_compact_at=64``) are doing meanwhile.

The write script is seeded and lsn-dense (write ``i`` commits lsn ``i``),
so the expected answer per lsn is computed up front from a plain
in-memory model by the definitional semantics.  A failure prints the seed
and the lsn.
"""

import random
import sys
import threading

import pytest

from repro.engine import QueryEngine
from repro.engine.optimizer import PlannedEngine
from repro.query.parser import parse_query
from repro.query.semantics import evaluate
from repro.server import DirectoryService
from repro.storage.maintenance import UpdatableDirectory
from repro.txn.agent import MaintenanceAgent
from repro.workload import random_instance

from tests.storage.test_overlay_reads import (
    History,
    Model,
    apply_to_directory,
    apply_to_service,
)

WRITES = 240
READERS = 4
COMPACT_AT = 64
JOIN_TIMEOUT_S = 120
#: Draw weights over ``History.STEP_KINDS``: mostly adds and modifies, so
#: the overlay outgrows COMPACT_AT between the recursive deletes that
#: shrink it.
KIND_WEIGHTS = (8, 5, 3, 2, 1, 2, 1)


def _script(seed):
    """(instance, ops, queries, expected[query][lsn] -> dn list)."""
    instance = random_instance(seed + 300, size=50)
    model = Model(instance)
    history = History(seed, model)
    root = next(iter(instance.roots())).dn
    queries = [
        parse_query("( ? sub ? objectClass=*)"),
        parse_query("(%s ? sub ? kind=alpha)" % root),
        parse_query("(c ( ? sub ? objectClass=*) ( ? sub ? kind=beta))"),
    ]
    ops = []
    expected = [[[str(e.dn) for e in evaluate(q, instance)]] for q in queries]
    kinds = random.Random(seed)
    while len(ops) < WRITES:
        (kind,) = kinds.choices(History.STEP_KINDS, KIND_WEIGHTS)
        for op in history.next_ops(kind):
            model.apply(op)
            ops.append(op)
            snapshot = model.instance()
            for index, query in enumerate(queries):
                expected[index].append([str(e.dn) for e in evaluate(query, snapshot)])
    return instance, ops, queries, expected


def _race(writer, readers):
    """Run the writer and the readers to completion under a shortened
    switch interval; re-raise the first failure."""
    errors = []
    stop = threading.Event()

    def guarded(work, *args):
        try:
            work(*args)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=guarded, args=(reader, index, stop))
        for index, reader in enumerate(readers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        guarded(writer, stop)
    finally:
        stop.set()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


@pytest.mark.parametrize("seed", range(3))
def test_views_are_prefix_consistent_under_writes_and_compaction(seed):
    instance, ops, queries, expected = _script(seed)
    directory = UpdatableDirectory.from_instance(
        instance, page_size=8, buffer_pages=6, auto_compact_at=COMPACT_AT
    )
    agent = MaintenanceAgent().start()
    directory.attach_maintenance(agent)
    reads = [0] * READERS

    def writer(stop):
        for op in ops:
            if stop.is_set():
                return
            apply_to_directory(directory, op)

    def reader(index, stop):
        engine_class = PlannedEngine if index % 2 else QueryEngine
        last_lsn = -1
        while not stop.is_set():
            for which, query in enumerate(queries):
                with directory.acquire_view() as view:
                    lsn = view.lsn
                    got = engine_class(view).run(query).dns()
                assert lsn >= last_lsn
                last_lsn = lsn
                assert got == expected[which][lsn], (
                    "seed=%d lsn=%d query=%s" % (seed, lsn, query)
                )
                reads[index] += 1

    try:
        _race(writer, [reader] * READERS)
        agent.drain()
    finally:
        directory.detach_maintenance()
        agent.stop()
    assert agent.failures == 0
    assert directory.head_lsn == len(ops)
    assert all(reads)
    assert directory.compactions >= 1  # the agent did fold, off the readers' path
    assert directory._pins == {}
    with directory.acquire_view() as view:
        final = QueryEngine(view).run(queries[0]).dns()
    assert final == expected[0][len(ops)]


@pytest.mark.parametrize("seed", range(2))
def test_service_searches_land_between_the_lsns_they_straddle(seed):
    instance, ops, queries, expected = _script(seed + 10)
    # cache off: a resident is patched *after* its write commits, so a
    # cached answer may lawfully trail head_lsn; the engine path may not.
    service = DirectoryService(instance, page_size=8, cache_bytes=0)
    directory = service.directory
    directory.auto_compact_at = COMPACT_AT
    service.start_maintenance()
    reads = [0] * READERS

    def writer(stop):
        for op in ops:
            if stop.is_set():
                return
            apply_to_service(service, op)

    def reader(index, stop):
        while not stop.is_set():
            for which, query in enumerate(queries):
                low = directory.head_lsn
                got = service.search(query).dns()
                high = directory.head_lsn
                assert got in expected[which][low : high + 1], (
                    "seed=%d lsn in [%d, %d] query=%s" % (seed, low, high, query)
                )
                reads[index] += 1

    try:
        _race(writer, [reader] * READERS)
    finally:
        service.close()
    assert all(reads)
    assert directory.compactions >= 1
    assert directory._pins == {}
