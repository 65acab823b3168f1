"""E25: log-shipped replication -- shipping cost, resync vs catch-up,
failover.

Replication rides the durable change log (footnote 4 of the paper made
concrete): the primary accumulates lsn-stamped change records and ships
the suffix past each replica's acked lsn.  Three costs matter and this
experiment measures all of them on the simulated network:

- **Incremental shipping is linear in the delta.**  Catching a replica
  up after ``delta`` writes ships exactly ``delta`` records, independent
  of directory size -- the changelog suffix, not the database.
- **Resync is linear in the directory.**  A replica that fell behind the
  truncated changelog floor pays a full snapshot plus the log suffix;
  that is the price of bounding the changelog.
- **Failover is metadata-only.**  Promotion bumps the epoch and moves
  the shipping listener; re-converging the surviving replicas ships only
  the unreplicated tail, and the deposed primary rejoins by resync.

Expected shape: shipped records == writes at every size (no
amplification); resync entries track directory size while incremental
entries track the delta; failover re-shipping is bounded by the tail.
"""

from repro.dist import ReplicatedContext, SimulatedNetwork
from repro.workload import synthetic_schema

from tests.dist.faults import FaultInjector, FaultPlan
from tests.meter import Meter

from ._util import record

SIZES = (64, 128, 256, 512)
DELTA = 32
SECONDARIES = 2


def _group(network=None, ack="primary"):
    replicated = ReplicatedContext(
        "name=r",
        synthetic_schema(),
        secondaries=SECONDARIES,
        network=network if network is not None else SimulatedNetwork(),
        ack=ack,
    )
    replicated.add("name=r", ["node"], name="r")
    return replicated


def _load(replicated, count, prefix="e"):
    for index in range(count):
        replicated.add(
            "name=%s%d, name=r" % (prefix, index), ["node"],
            name="%s%d" % (prefix, index),
        )


def _shipping_run(size):
    """Bulk ship ``size`` writes, then an incremental ``DELTA`` catch-up."""
    meter = Meter()
    network = SimulatedNetwork()
    replicated = _group(network)
    _load(replicated, size)
    replicated.sync()
    bulk_messages = network.messages
    bulk_entries = network.entries_shipped
    _load(replicated, DELTA, prefix="d")
    replicated.sync()
    incremental_entries = network.entries_shipped - bulk_entries
    return {
        "bulk_messages": bulk_messages,
        "bulk_entries": bulk_entries,
        "incremental_entries": incremental_entries,
        "shipped_records": int(meter("repro_replication_shipped_records_total")),
        "changelog_after": replicated.changelog_length(),
    }


def _resync_run(size):
    """One replica sits out ``size`` writes behind a quorum floor, then
    rejoins: the catch-up is a snapshot resync, not a log replay."""
    plan = FaultPlan().partition("primary", "secondary1", 0.0, 5.0)
    network = FaultInjector(plan)
    replicated = _group(network, ack="quorum")
    _load(replicated, size)
    # secondary0 acked everything via quorum writes; the changelog floor
    # advanced past secondary1's position.
    before = network.entries_shipped
    network.sleep(10.0)
    replicated.sync()
    return {
        "resync_entries": network.entries_shipped - before,
        "resyncs": replicated.resyncs,
        "lag_after": replicated.lag("secondary1"),
    }


def _failover_run(size, tail):
    """Sync, leave ``tail`` writes unshipped, promote, re-converge."""
    network = SimulatedNetwork()
    replicated = _group(network)
    _load(replicated, size)
    replicated.sync()
    _load(replicated, tail, prefix="t")
    replicated.sync()  # tail fully shipped: no writes are at risk
    before = network.entries_shipped
    replicated.promote()
    replicated.sync()  # deposed primary resyncs onto the new lineage
    replicated.sync()
    return {
        "new_primary": replicated.primary_name,
        "epoch": replicated.epoch,
        "reship_entries": network.entries_shipped - before,
        "resyncs": replicated.resyncs,
        "max_lag": max(replicated.lag(n) for n in replicated.nodes),
    }


def test_e25_shipping_is_linear_in_the_delta(benchmark):
    rows = []
    outcomes = {}
    for size in SIZES:
        outcome = _shipping_run(size)
        outcomes[size] = outcome
        rows.append((
            size,
            outcome["bulk_messages"],
            outcome["bulk_entries"],
            outcome["incremental_entries"],
            outcome["shipped_records"],
            outcome["changelog_after"],
        ))
        writes = size + 1  # the context root
        # No amplification: every write ships exactly once per replica.
        assert outcome["bulk_entries"] == writes * SECONDARIES
        # Incremental catch-up is the delta, independent of |directory|.
        assert outcome["incremental_entries"] == DELTA * SECONDARIES
        # Everything acked (ship implies ack here): changelog truncated.
        assert outcome["changelog_after"] == 0

    record(
        benchmark,
        "E25a: incremental shipping (%d secondaries, delta=%d)"
        % (SECONDARIES, DELTA),
        ("writes", "messages", "bulk entries", "delta entries",
         "records shipped", "changelog after"),
        rows,
    )
    benchmark.pedantic(lambda: _shipping_run(SIZES[0]), rounds=3)


def test_e25_resync_tracks_directory_size(benchmark):
    rows = []
    resync_entries = []
    for size in SIZES:
        outcome = _resync_run(size)
        rows.append((size, outcome["resync_entries"], outcome["resyncs"],
                     outcome["lag_after"]))
        assert outcome["resyncs"] == 1
        assert outcome["lag_after"] == 0
        # The resync ships at least the whole snapshot image.
        assert outcome["resync_entries"] >= size
        resync_entries.append(outcome["resync_entries"])
    # Resync cost grows with the directory (the changelog would not).
    assert resync_entries[-1] > resync_entries[0] * 2

    record(
        benchmark,
        "E25b: snapshot resync after falling behind the changelog floor",
        ("directory size", "resync entries", "resyncs", "lag after"),
        rows,
    )


def test_e25_failover_reships_only_the_tail(benchmark):
    rows = []
    for size, tail in ((128, 0), (128, 16), (512, 16)):
        outcome = _failover_run(size, tail)
        rows.append((size, tail, outcome["new_primary"], outcome["epoch"],
                     outcome["reship_entries"], outcome["resyncs"]))
        assert outcome["epoch"] == 2
        assert outcome["max_lag"] == 0
        # Re-convergence cost is bounded by the directory (deposed
        # primary resync), never a function of replication history.
        assert outcome["reship_entries"] <= (size + tail + 1) * 2
    # The two equal-size runs differ only in tail size; the 4x directory
    # shows resync cost, not history cost.
    record(
        benchmark,
        "E25c: failover cost (promote + re-converge)",
        ("directory size", "unshipped tail", "new primary", "epoch",
         "reshipped entries", "resyncs"),
        rows,
    )


def test_e25_schedules_are_deterministic():
    first = _resync_run(128)
    second = _resync_run(128)
    assert first == second
    assert _failover_run(128, 16) == _failover_run(128, 16)
