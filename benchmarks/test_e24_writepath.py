"""E24 (extension): the durable write path under a mixed read/write load.

Four claims, all deterministic (fixed seeds, no wall-clock fields):

1. *Incremental cache maintenance pays.*  On a Zipf read stream with
   interleaved point writes, patching cached results in place retains at
   least 2x the resident cache bytes of wholesale invalidation -- and
   every cached answer stays bit-identical to an uncached evaluation of
   the same query at the same point in the update sequence.
2. *Group commit amortises.*  Batching k appends per sync divides the
   flush count by k exactly; the log contents are byte-identical either
   way.
3. *Recovery is deterministic.*  A seeded crash yields the same
   recovered record count and head lsn on every reopen.
4. *A write costs O(depth + touched residents).*  The cache maintainer's
   function calls for one single-entry modify stay within 10 % from 64
   to 4 096 residents, the same five of which hold the written entry: the
   cache's prefix index names the touched residents, so the rest are
   never visited.
"""

import random

from repro.model.dn import DN
from repro.model.entry import Entry
from repro.server import DirectoryService
from repro.txn.durable import DurableDirectory
from repro.txn.records import ChangeRecord
from repro.txn.wal import CrashPlan, SimulatedCrash, WriteAheadLog, scan_wal
from repro.workload import ZipfQueryStream, random_instance

from tests.cache.test_call_counts import TOUCHED, maintainer_calls

from ._util import record

INSTANCE_SEED = 24
INSTANCE_SIZE = 400
STREAM_LENGTH = 240
DISTINCT = 24
WRITE_RATE = 0.15
CACHE_BYTES = 8 * 1024 * 1024


def make_service(maintenance: str, cache_bytes: int = CACHE_BYTES):
    instance = random_instance(INSTANCE_SEED, size=INSTANCE_SIZE)
    service = DirectoryService(
        instance, page_size=16, buffer_pages=8, cache_bytes=cache_bytes
    )
    if maintenance == "evict" and service.cache is not None:
        # The reference arm lives here, where it is used: wholesale
        # footprint invalidation in place of the service's maintainer.
        service._maintainer.detach()
        service.directory.add_record_listener(
            lambda record: service.cache.invalidate(record.dn, subtree=record.subtree)
        )
    return instance, service


def make_script(instance):
    """The deterministic interleaved operation list both services replay:
    Zipf-popular reads with seeded point writes mixed in."""
    queries = ZipfQueryStream(
        instance, distinct=DISTINCT, skew=1.0, seed=7
    ).take(STREAM_LENGTH)
    victims = [e.dn for e in instance if e.classes & {"node", "item"}]
    roots = sorted({e.dn for e in instance.roots()}, key=lambda dn: dn.key())
    rng = random.Random(99)
    script = []
    fresh = 0
    for query in queries:
        script.append(("read", query))
        if rng.random() < WRITE_RATE:
            if rng.random() < 0.7:
                dn = rng.choice(victims)
                script.append(("modify", dn, {"weight": [rng.randint(0, 100)]}))
            else:
                root = rng.choice(roots)
                name = "e24w%d" % fresh
                fresh += 1
                script.append(("add", root.child("name=%s" % name), name))
    return script


def replay(service, reference, script):
    """Run the script; sample resident cache bytes after every operation
    and differentially check each cached hit against the uncached
    reference service (which replays the same writes)."""
    samples = []
    hits = exact = 0
    for op in script:
        if op[0] == "read":
            result = service.search(op[1])
            expected = reference.search(op[1])
            assert result.code == expected.code == "success"
            if result.cached:
                hits += 1
                if result.dns() == expected.dns():
                    exact += 1
        elif op[0] == "modify":
            assert service.modify(op[1], replace=op[2]) == "success"
            assert reference.modify(op[1], replace=op[2]) == "success"
        else:
            _, dn, name = op
            assert service.add(dn, ["node"], name=name, kind="alpha") == "success"
            assert reference.add(dn, ["node"], name=name, kind="alpha") == "success"
        samples.append(service.cache.resident_bytes)
    return samples, hits, exact


def test_e24_incremental_retention(benchmark):
    rows = []
    averages = {}
    for maintenance in ("evict", "incremental"):
        instance, service = make_service(maintenance)
        _, reference = make_service(maintenance, cache_bytes=0)
        script = make_script(instance)
        samples, hits, exact = replay(service, reference, script)
        stats = service.cache_stats
        avg = sum(samples) // max(len(samples), 1)
        averages[maintenance] = avg
        assert hits == exact, (
            "%s: %d cached hits, only %d exact" % (maintenance, hits, exact)
        )
        rows.append(
            (
                maintenance,
                len(script),
                hits,
                exact,
                stats.patched,
                stats.invalidations,
                avg,
            )
        )
    ratio = averages["incremental"] / max(averages["evict"], 1)
    rows.append(("retention ratio", "", "", "", "", "", round(ratio, 2)))
    record(
        benchmark,
        "E24: resident cache bytes, incremental patching vs eviction "
        "(Zipf 1.0 reads, %d%% writes)" % int(WRITE_RATE * 100),
        ("mode", "ops", "hits", "exact", "patched", "invalidated",
         "avg resident bytes"),
        rows,
    )
    assert ratio >= 2.0, (
        "incremental maintenance should retain >=2x cached bytes, got %.2fx"
        % ratio
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _commit_log(tmpdir, group):
    """Write 64 records syncing every ``group`` appends; return the WAL."""
    path = "%s/wal_g%d.log" % (tmpdir, group)
    wal = WriteAheadLog(path, fsync=False)
    total = 64
    for lsn in range(1, total + 1):
        dn = DN.parse("name=n%d, dc=com" % lsn)
        wal.append(
            ChangeRecord("add", dn, entry=Entry(dn, ["node"], {}), lsn=lsn)
        )
        if lsn % group == 0:
            wal.sync(lsn)
    wal.close()
    return wal, path


def test_e24_group_commit_amortisation(benchmark, tmp_path):
    rows = []
    contents = []
    for group in (1, 2, 4, 8, 16):
        wal, path = _commit_log(str(tmp_path), group)
        records, valid_bytes, torn = scan_wal(path)
        assert not torn and len(records) == 64
        contents.append([r.lsn for r in records])
        rows.append((group, wal.appends, wal.flushes, valid_bytes))
        assert wal.flushes == 64 // group
    assert all(c == contents[0] for c in contents), (
        "batching must not change the log contents"
    )
    record(
        benchmark,
        "E24: group commit, 64 records at fixed batch sizes",
        ("records per sync", "appends", "flushes", "log bytes"),
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e24_crash_recovery_determinism(benchmark, tmp_path):
    rows = []
    for crash_at, torn_bytes in ((2, 0), (4, 13), (6, 200)):
        data_dir = tmp_path / ("crash_%d_%d" % (crash_at, torn_bytes))
        instance = random_instance(INSTANCE_SEED, size=60)
        directory = DurableDirectory.open(
            str(data_dir),
            instance,
            page_size=8,
            crash_plan=CrashPlan(crash_at, torn_bytes),
        )
        root = next(iter(instance.roots())).dn
        acked = 0
        for i in range(10):
            try:
                directory.add(
                    root.child("name=cr%d" % i), ["node"], name="cr%d" % i
                )
                acked += 1
            except SimulatedCrash:
                break
        outcomes = []
        for _ in range(2):
            reopened = DurableDirectory.open(str(data_dir), page_size=8)
            outcomes.append((reopened.recovered_records, reopened.head_lsn))
            for i in range(acked):
                assert reopened.lookup(root.child("name=cr%d" % i)) is not None
            reopened.close()
        assert outcomes[0] == outcomes[1], "reopen must be deterministic"
        recovered, head = outcomes[0]
        assert recovered >= acked
        rows.append((crash_at, torn_bytes, acked, recovered, head))
    record(
        benchmark,
        "E24: seeded crash recovery (acked commits always survive)",
        ("crash at flush", "torn bytes", "acked", "recovered", "head lsn"),
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e24_maintainer_calls_per_write(benchmark):
    rows = []
    for residents in (64, 256, 1024, 4096):
        calls, (resident, patched, evicted) = maintainer_calls(residents)
        rows.append((residents, len(TOUCHED), patched, evicted, calls))
    counts = [row[-1] for row in rows]
    record(
        benchmark,
        "E24: maintainer function calls per single-entry modify",
        ("residents", "touched", "patched", "evicted", "calls"),
        rows,
    )
    assert max(counts) <= 1.1 * min(counts), (
        "maintainer calls per write should not grow with residents: %s"
        % counts
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
