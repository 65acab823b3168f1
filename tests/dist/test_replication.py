"""Replication and failover (footnote 4 of the paper)."""

import pytest

from repro.dist.network import SimulatedNetwork
from repro.dist.replication import AvailabilityRouter, ReplicatedContext, ReplicationError
from repro.query.parser import parse_query
from repro.workload import synthetic_schema

from tests.meter import Meter, reading


@pytest.fixture
def context():
    network = SimulatedNetwork()
    replicated = ReplicatedContext(
        "name=r", synthetic_schema(), secondaries=2, network=network,
    )
    replicated.add("name=r", ["node"], name="r", kind="alpha")
    for index in range(6):
        replicated.add(
            "name=e%d, name=r" % index,
            ["node"],
            name="e%d" % index,
            kind="alpha" if index % 2 == 0 else "beta",
        )
    return network, replicated


QUERY = parse_query("(name=r ? sub ? kind=alpha)")


class TestSync:
    def test_changelog_accumulates(self, context):
        _network, replicated = context
        assert replicated.changelog_length() == 7
        assert replicated.lag("secondary0") == 7

    def test_sync_ships_counted_batches(self, context):
        network, replicated = context
        shipped = replicated.sync()
        assert shipped == {"secondary0": 7, "secondary1": 7}
        assert network.messages == 2
        assert network.entries_shipped == 14
        assert replicated.lag("secondary0") == 0
        # A second sync ships nothing.
        assert replicated.sync() == {"secondary0": 0, "secondary1": 0}
        assert network.messages == 2

    def test_incremental_sync(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.add("name=late, name=r", ["node"], name="late")
        assert replicated.lag("secondary0") == 1
        assert replicated.sync()["secondary0"] == 1


class TestFailover:
    def test_primary_preferred(self, context):
        _network, replicated = context
        replicated.sync()
        router = AvailabilityRouter(replicated)
        entries = router.evaluate(QUERY)
        assert router.served_by == ["primary"]
        assert len(entries) == 4  # root + 3 alpha children

    def test_failover_to_synced_secondary(self, context):
        _network, replicated = context
        replicated.sync()
        router = AvailabilityRouter(replicated)
        primary_answer = router.evaluate(QUERY)
        router.mark_down("primary")
        secondary_answer = router.evaluate(QUERY)
        assert router.served_by[-1] == "secondary0"
        assert [e.dn for e in secondary_answer] == [e.dn for e in primary_answer]

    def test_stale_secondary_skipped(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.add("name=fresh, name=r", ["node"], name="fresh", kind="alpha")
        router = AvailabilityRouter(replicated)
        router.mark_down("primary")
        with pytest.raises(ReplicationError):
            router.evaluate(QUERY)  # both secondaries lag
        replicated.sync()
        entries = router.evaluate(QUERY)
        assert any(e.first("name") == "fresh" for e in entries)

    @pytest.mark.parametrize("down", [(), ("primary",)])
    def test_a_read_does_not_compact_or_rebuild_the_replica(self, context, down):
        """A replica read is the service's read path -- a pinned view
        merging the pending overlay -- not compact + reload + re-index."""
        _network, replicated = context
        replicated.add("name=fresh, name=r", ["node"], name="fresh", kind="alpha")
        replicated.sync()
        router = AvailabilityRouter(replicated)
        for name in down:
            router.mark_down(name)
        before = {
            name: (node.directory.compactions, node.directory.pending(),
                   node.directory.store.pager.live_pages)
            for name, node in replicated.nodes.items()
        }
        assert all(pending for _, pending, _ in before.values())
        entries = router.evaluate(QUERY)
        assert any(e.first("name") == "fresh" for e in entries)
        assert router.served_by == ["secondary0" if down else "primary"]
        for name, node in replicated.nodes.items():
            directory = node.directory
            assert before[name] == (
                directory.compactions, directory.pending(),
                directory.store.pager.live_pages,
            ), name
            assert directory._pins == {}

    def test_mark_up_restores(self, context):
        _network, replicated = context
        replicated.sync()
        router = AvailabilityRouter(replicated)
        router.mark_down("primary")
        router.evaluate(QUERY)
        router.mark_up("primary")
        router.evaluate(QUERY)
        assert router.served_by[-1] == "primary"

    def test_all_down(self, context):
        _network, replicated = context
        replicated.sync()
        router = AvailabilityRouter(replicated)
        for name in ("primary", "secondary0", "secondary1"):
            router.mark_down(name)
        with pytest.raises(ReplicationError) as caught:
            router.evaluate(QUERY)
        assert caught.value.code == ReplicationError.NO_REPLICA


class TestBoundedStaleness:
    def test_max_lag_admits_slightly_stale_secondaries(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.add("name=fresh, name=r", ["node"], name="fresh", kind="alpha")
        router = AvailabilityRouter(replicated, max_lag=1)
        router.mark_down("primary")
        entries = router.evaluate(QUERY)  # one record behind: acceptable
        assert router.served_by == ["secondary0"]
        assert not any(e.first("name") == "fresh" for e in entries)

    def test_per_call_override(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.add("name=fresh, name=r", ["node"], name="fresh", kind="alpha")
        router = AvailabilityRouter(replicated)  # strict by default
        router.mark_down("primary")
        with pytest.raises(ReplicationError):
            router.evaluate(QUERY)
        assert router.evaluate(QUERY, max_lag=1) is not None

    def test_validation(self, context):
        _network, replicated = context
        with pytest.raises(ValueError):
            AvailabilityRouter(replicated, max_lag=-1)


class TestDecisionTrail:
    def test_trail_records_why_each_candidate_was_skipped(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.add("name=fresh, name=r", ["node"], name="fresh", kind="alpha")
        replicated.sync()  # secondary0 catches up...
        replicated.add("name=later, name=r", ["node"], name="later")
        router = AvailabilityRouter(replicated)
        router.mark_down("primary")
        with pytest.raises(ReplicationError):
            router.evaluate(QUERY)
        assert router.decisions[-1] == [
            ("primary", "down"),
            ("secondary0", "lag=1"),
            ("secondary1", "lag=1"),
        ]

    def test_trail_ends_with_the_server_that_served(self, context):
        _network, replicated = context
        replicated.sync()
        router = AvailabilityRouter(replicated)
        router.mark_down("primary")
        router.evaluate(QUERY)
        assert router.decisions == [
            [("primary", "down"), ("secondary0", "served")]
        ]


def _fill(replicated, count=5):
    replicated.add("name=r", ["node"], name="r", kind="alpha")
    for index in range(count):
        replicated.add("name=e%d, name=r" % index, ["node"], name="e%d" % index)


class TestTypedShipping:
    def test_changelog_holds_lsn_stamped_change_records(self, context):
        _network, replicated = context
        records = replicated.primary.applied
        assert [r.lsn for r in records] == list(range(1, 8))
        assert all(r.kind == "add" for r in records)

    def test_replicas_apply_through_the_recovery_replay_path(self, context):
        _network, replicated = context
        records = list(replicated.primary.applied)
        replicated.sync()
        secondary = replicated.node("secondary0")
        assert secondary.applied_lsn == 7
        assert all(
            secondary.directory.lookup(r.dn) is not None for r in records
        )
        # Re-shipping the same records is an idempotent no-op (dup lsns
        # are skipped by apply_records, exactly like crash recovery).
        assert secondary.receive(replicated.epoch, records) == []
        assert secondary.applied_lsn == 7

    def test_deletes_and_modifies_ship_as_post_images(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.modify("name=e0, name=r", replace={"kind": ["gamma"]})
        replicated.delete("name=e1, name=r")
        replicated.sync()
        secondary = replicated.node("secondary0").directory
        assert secondary.lookup("name=e0, name=r").first("kind") == "gamma"
        assert secondary.lookup("name=e1, name=r") is None


class TestChangelogTruncation:
    def test_fully_acked_prefix_is_truncated(self, context):
        _network, replicated = context
        assert replicated.changelog_length() == 7
        replicated.sync()
        assert replicated.changelog_length() == 0
        assert replicated.changelog_floor == 7

    def test_lagging_replica_pins_the_changelog(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary1", 0.0, 1e9)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2,
            network=FaultInjector(plan),
        )
        _fill(replicated)
        replicated.sync()
        # secondary0 acked everything, secondary1 is unreachable: with
        # ack="primary" the floor is the *minimum* acked lsn.
        assert replicated.changelog_length() == 6
        assert replicated.lag("secondary1") == 6
        assert reading("repro_replication_changelog_records") == 6

    def test_quorum_ack_truncates_at_the_quorum_floor(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary1", 0.0, 1e9)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, ack="quorum",
            network=FaultInjector(plan),
        )
        _fill(replicated)
        # Quorum = 2 of 3 = primary + secondary0; the unreachable replica
        # does not pin the changelog.
        assert replicated.changelog_length() == 0
        assert replicated.changelog_floor == 6

    def test_replica_behind_the_floor_catches_up_by_resync(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary1", 0.0, 5.0)
        network = FaultInjector(plan)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, ack="quorum",
            network=network,
        )
        _fill(replicated)
        assert replicated.changelog_floor == 6  # secondary1's records are gone
        network.sleep(10.0)  # heal the partition
        shipped = replicated.sync()
        assert shipped["secondary1"] == 6
        assert replicated.resyncs == 1
        assert replicated.node("secondary1").applied_lsn == 6
        assert replicated.lag("secondary1") == 0


class TestAckLevels:
    def test_quorum_write_ships_synchronously(self):
        from repro.dist import SimulatedNetwork

        network = SimulatedNetwork()
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, ack="quorum",
            network=network,
        )
        replicated.add("name=r", ["node"], name="r")
        assert replicated.lag("secondary0") == 0 or replicated.lag("secondary1") == 0
        assert network.messages >= 1  # the write itself shipped

    def test_unreachable_quorum_raises_ack_failed(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = (FaultPlan()
                .partition("primary", "secondary0", 0.0, 1e9)
                .partition("primary", "secondary1", 0.0, 1e9))
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, ack="quorum",
            network=FaultInjector(plan),
        )
        meter = Meter()
        with pytest.raises(ReplicationError) as caught:
            replicated.add("name=r", ["node"], name="r")
        assert caught.value.code == ReplicationError.ACK_FAILED
        # The write committed locally -- it is just not acknowledged.
        assert replicated.primary.applied_lsn == 1
        assert meter("repro_replication_ack_failures_total") == 1

    def test_ack_level_is_validated(self):
        with pytest.raises(ValueError):
            ReplicatedContext("name=r", synthetic_schema(), ack="eventual")


class TestEpochFencing:
    def test_promotion_bumps_the_epoch_and_deposes_the_primary(self, context):
        _network, replicated = context
        replicated.sync()
        new_primary = replicated.promote()
        assert new_primary == "secondary1"  # most caught-up, name tiebreak
        assert replicated.epoch == 2
        assert replicated.primary_name == new_primary
        assert replicated.node("primary").role == "deposed"
        status = replicated.replication_status()
        assert (status["epoch"], status["primary"]) == (2, new_primary)
        assert status["replicas"]["primary"]["role"] == "deposed"

    def test_deposed_primary_writes_are_fenced(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.promote()
        meter = Meter()
        with pytest.raises(ReplicationError) as caught:
            replicated.write_via("primary", "add", "name=x, name=r", ["node"],
                                 {"name": ["x"]})
        assert caught.value.code == ReplicationError.FENCED
        assert meter("repro_replication_fenced_total") == 1

    def test_deposed_primary_ships_are_fenced(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.promote()
        with pytest.raises(ReplicationError) as caught:
            replicated.ship_via("primary")
        assert caught.value.code == ReplicationError.FENCED

    def test_receive_side_fence_rejects_lower_epochs(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.promote()
        replicated.add("name=x, name=r", ["node"], name="x")
        replicated.sync()  # replicas now know epoch 2
        stale_batch = replicated.primary.applied[-1:]
        with pytest.raises(ReplicationError) as caught:
            replicated.node("secondary0").receive(1, stale_batch)
        assert caught.value.code == ReplicationError.FENCED

    def test_plain_secondary_write_is_not_primary(self, context):
        _network, replicated = context
        with pytest.raises(ReplicationError) as caught:
            replicated.write_via("secondary0", "add", "name=x, name=r",
                                 ["node"], {"name": ["x"]})
        assert caught.value.code == ReplicationError.NOT_PRIMARY

    def test_writes_on_the_new_lineage_keep_flowing(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.promote()
        replicated.add("name=x, name=r", ["node"], name="x")
        replicated.sync()
        for name in ("primary", "secondary0"):
            node = replicated.node(name)
            assert node.directory.lookup("name=x, name=r") is not None
            assert node.epoch == 2
            assert node.role == "secondary"  # deposed rejoined on receive


class TestPromotion:
    def test_picks_the_most_caught_up_live_replica(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary1", 0.0, 1e9)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2,
            network=FaultInjector(plan),
        )
        _fill(replicated)
        replicated.sync()  # secondary0 at lsn 6, secondary1 unreachable at 0
        assert replicated.promote(exclude=()) == "secondary0"

    def test_a_candidate_missing_a_quorum_acked_write_is_not_promoted(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary1", 0.0, 1e9)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, ack="quorum",
            network=FaultInjector(plan),
        )
        replicated.add("name=r", ["node"], name="r")  # primary + secondary0
        # With secondary0 down too, promoting secondary1 (lsn 0) would lose
        # that quorum-acked write.
        with pytest.raises(ReplicationError) as caught:
            replicated.promote(exclude={"secondary0"})
        assert caught.value.code == ReplicationError.NO_CANDIDATE
        assert replicated.promote() == "secondary0"

    def test_excluded_and_diverged_nodes_are_not_candidates(self, context):
        _network, replicated = context
        # Nothing shipped: promoting loses the whole unshipped tail, and
        # the old primary (lsn 7 > fork 0) is flagged diverged.
        replicated.promote()
        old = replicated.node("primary")
        assert old.needs_resync
        with pytest.raises(ReplicationError) as caught:
            replicated.promote(name="primary")
        assert caught.value.code == ReplicationError.NO_CANDIDATE

    def test_no_candidate_when_everything_is_excluded(self, context):
        _network, replicated = context
        with pytest.raises(ReplicationError) as caught:
            replicated.promote(exclude={"secondary0", "secondary1"})
        assert caught.value.code == ReplicationError.NO_CANDIDATE

    def test_diverged_old_primary_resyncs_onto_the_new_lineage(self, context):
        _network, replicated = context
        replicated.sync()
        replicated.add("name=tail, name=r", ["node"], name="tail")  # unshipped
        replicated.promote()  # fork at lsn 7: the tail write is disowned
        assert replicated.node("primary").needs_resync
        replicated.add("name=x, name=r", ["node"], name="x")
        replicated.sync()
        old = replicated.node("primary")
        assert not old.needs_resync
        assert old.directory.lookup("name=tail, name=r") is None  # disowned
        assert old.directory.lookup("name=x, name=r") is not None
        assert replicated.resyncs == 1


class TestBoundedSuffix:
    def test_every_node_trims_at_the_minimum_acked_lsn(self):
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2,
            network=SimulatedNetwork(),
        )
        replicated.add("name=r", ["node"], name="r")  # lsn 1
        for lsn in range(2, 2002):
            replicated.add("name=e%d, name=r" % lsn, ["node"],
                           name="e%d" % lsn)
            if lsn % 50 == 0:
                replicated.sync()
            assert max(len(n.applied) for n in replicated.nodes.values()) <= 51
        replicated.sync()
        assert replicated.primary.applied_lsn == 2001
        assert replicated.changelog_length() == 0
        assert all(
            node.applied == [] and node.applied_floor == 2001
            for node in replicated.nodes.values()
        )

    def test_promotion_after_a_trim_matches_the_untrimmed_group(self):
        from tests.dist.faults import FaultInjector, FaultPlan

        # A 5-node quorum group: secondary3 and secondary2 fall behind in
        # turn, then the primary is cut off with an unacknowledged tail.
        plan = (FaultPlan()
                .partition("primary", "secondary3", 1.0, 10.0)
                .partition("primary", "secondary2", 3.0, 10.0)
                .partition("primary", "secondary0", 5.0, 10.0)
                .partition("primary", "secondary1", 5.0, 10.0))
        network = FaultInjector(plan)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=4, ack="quorum",
            network=network,
        )
        _fill(replicated, count=1)
        network.sleep(2.0)
        replicated.add("name=e1, name=r", ["node"], name="e1")
        network.sleep(2.0)
        for index in (2, 3, 4):
            replicated.add("name=e%d, name=r" % index, ["node"],
                           name="e%d" % index)
        # Trimmed at secondary3's lsn 2, the minimum acked.
        assert {n: len(node.applied) for n, node in replicated.nodes.items()} == {
            "primary": 4, "secondary0": 4, "secondary1": 4,
            "secondary2": 1, "secondary3": 0,
        }
        network.sleep(2.0)
        with pytest.raises(ReplicationError):
            replicated.add("name=tail, name=r", ["node"], name="tail")
        assert replicated.promote() == "secondary1"
        network.sleep(10.0)
        replicated.sync()
        replicated.sync()
        # The resync set and the ships of a group that never trims.
        assert [n for n, node in replicated.nodes.items() if node.needs_resync] == []
        assert replicated.resyncs == 1
        first_epoch = [
            ("ship", 1, name, lsn, lsn)
            for lsn, names in (
                (1, "0123"), (2, "0123"), (3, "012"),
                (4, "01"), (5, "01"), (6, "01"),
            )
            for name in ("secondary%s" % n for n in names)
        ]
        assert replicated.ship_log == first_epoch + [
            ("promote", 2, "secondary1", 6, 6),
            ("resync", 2, "primary", 6, 6),
            ("ship", 2, "secondary2", 4, 6),
            ("ship", 2, "secondary3", 3, 6),
        ]
        assert all(replicated.lag(n) == 0 for n in replicated.nodes)


class TestReplicationStatus:
    def test_status_dict_shape(self, context):
        _network, replicated = context
        replicated.sync()
        status = replicated.replication_status()
        assert status["epoch"] == 1
        assert status["primary"] == "primary"
        assert status["head_lsn"] == 7
        assert set(status["replicas"]) == {"primary", "secondary0", "secondary1"}
        for name in ("secondary0", "secondary1"):
            replica = status["replicas"][name]
            assert replica["acked_lsn"] == 7 and replica["lag"] == 0

    def test_gauges_track_epoch_and_lag(self, context):
        _network, replicated = context
        meter = Meter()
        assert reading("repro_replication_epoch") == 1
        assert reading("repro_replication_lag_records", replica="secondary0") == 7
        replicated.sync()
        assert reading("repro_replication_lag_records", replica="secondary0") == 0
        assert meter("repro_replication_shipped_records_total") == 14


class TestDurablePrimary:
    def test_resync_uses_checkpoint_plus_wal_suffix(self, tmp_path):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary0", 0.0, 5.0)
        network = FaultInjector(plan, keep_log=True)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, network=network,
            ack="quorum", durable_dir=str(tmp_path / "primary"),
        )
        replicated.add("name=r", ["node"], name="r")
        replicated.primary.directory.checkpoint()  # checkpoint at lsn 1
        for index in range(3):
            replicated.add("name=e%d, name=r" % index, ["node"],
                           name="e%d" % index)
        # secondary1 made the quorum, so the floor passed secondary0.
        assert replicated.changelog_floor == 4
        assert replicated.acked_lsn("secondary0") == 0
        network.sleep(10.0)
        replicated.sync()
        assert replicated.resyncs == 1
        secondary = replicated.node("secondary0")
        assert secondary.applied_lsn == 4
        # The suffix really came from the WAL: a snapshot at the
        # checkpoint (1 entry), then 3 records shipped on top.
        assert replicated.ship_log[-1] == ("resync", 1, "secondary0", 1, 4)
        assert network.log[-2:] == [
            ("primary", "secondary0", "snapshot", 1),
            ("primary", "secondary0", "changelog", 3),
        ]

    def test_records_shipped_to_a_deposed_durable_primary_survive_its_crash(
        self, tmp_path
    ):
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=2, ack="quorum",
            durable_dir=str(tmp_path / "primary"),
        )
        replicated.promote()  # nothing written: the old primary keeps up
        replicated.add("name=r", ["node"], name="r")  # shipped to it
        replicated.promote(name="primary")
        replicated.add("name=x, name=r", ["node"], name="x")  # its WAL: lsn 2
        node = replicated.reopen_primary()  # replays lsn 1 and 2, no gap
        assert node.applied_lsn == 2
        assert node.directory.lookup("name=r") is not None
        node.directory.close()

    def test_replica_behind_a_reopened_checkpoint_resyncs(self, tmp_path):
        from tests.dist.faults import FaultInjector, FaultPlan

        plan = FaultPlan().partition("primary", "secondary0", 1.0, 5.0)
        network = FaultInjector(plan)
        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=1, network=network,
            durable_dir=str(tmp_path / "primary"),
        )
        replicated.add("name=r", ["node"], name="r")
        replicated.sync()  # secondary0 at lsn 1
        network.sleep(2.0)  # partitioned from here
        for index in range(3):
            replicated.add("name=e%d, name=r" % index, ["node"],
                           name="e%d" % index)
        assert replicated.primary.directory.checkpoint() == 4
        replicated.add("name=e3, name=r", ["node"], name="e3")
        replicated.reopen_primary()
        network.sleep(10.0)
        # lsns 2..4 now exist only in the checkpoint image: shipping the
        # WAL suffix (lsn 5) onto lsn 1 would be an lsn gap.
        replicated.sync()
        assert replicated.resyncs == 1
        secondary = replicated.node("secondary0")
        assert secondary.applied_lsn == 5
        with secondary.directory.acquire_view() as view:
            replica = sorted(str(e.dn) for e in view.scan_all())
        with replicated.primary.directory.acquire_view() as view:
            assert replica == sorted(str(e.dn) for e in view.scan_all())
        assert len(replica) == 5

    def test_primary_crash_recovery_rejoins_the_group(self, tmp_path):
        from repro.txn.wal import CrashPlan, SimulatedCrash

        replicated = ReplicatedContext(
            "name=r", synthetic_schema(), secondaries=1,
            network=SimulatedNetwork(),
            durable_dir=str(tmp_path / "primary"),
        )
        replicated.add("name=r", ["node"], name="r")
        replicated.sync()
        wal = replicated.primary.directory.wal
        wal.crash_plan = CrashPlan(crash_at_flush=wal.flushes, torn_bytes=7)
        with pytest.raises(SimulatedCrash):
            replicated.add("name=lost, name=r", ["node"], name="lost")
        node = replicated.reopen_primary()
        # The torn write was never acknowledged; the acked one survived.
        assert node.applied_lsn == 1
        assert node.directory.lookup("name=r") is not None
        assert node.directory.lookup("name=lost, name=r") is None
        # The group keeps working on the recovered lineage.
        replicated.add("name=next, name=r", ["node"], name="next")
        replicated.sync()
        assert replicated.node("secondary0").directory.lookup(
            "name=next, name=r") is not None
