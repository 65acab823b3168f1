"""The write-ahead log: frame format, group commit, crash points.

The recovery contract under test (Acceptance: crash-recovery property):
for every seeded crash point, recovery replays deterministically, every
acknowledged (synced) record is present, and no partial record is ever
applied.
"""

import os
import threading

import pytest

from repro.model.dn import DN
from repro.model.entry import Entry
from repro.txn.records import ChangeRecord
from repro.txn.wal import (
    CrashPlan,
    SimulatedCrash,
    WalError,
    WriteAheadLog,
    encode_record,
    scan_wal,
)

from tests.logcap import capture
from tests.meter import Meter


def _record(lsn, name="x", kind="add"):
    dn = DN.parse("name=%s, dc=com" % name)
    entry = None
    if kind in ("add", "modify"):
        entry = Entry(dn, ["node"], {"name": [name]})
    return ChangeRecord(kind, dn, entry=entry, lsn=lsn)


class TestFrameFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        for lsn in range(1, 6):
            wal.commit(_record(lsn, "n%d" % lsn))
        wal.close()
        records, valid_bytes, torn = scan_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert not torn
        assert valid_bytes == os.path.getsize(path)
        assert records[2].entry.values("name") == ("n3",)

    def test_delete_subtree_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(ChangeRecord("delete", DN.parse("o=a, dc=com"), subtree=True, lsn=1))
        wal.close()
        records, _, _ = scan_wal(path)
        assert records[0].kind == "delete"
        assert records[0].subtree is True

    def test_dn_valued_attribute_roundtrips_as_dn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        dn = DN.parse("name=x, dc=com")
        target = DN.parse("name=y, dc=com")
        entry = Entry(dn, ["node"], {"name": ["x"], "level": [3], "ref": [target]})
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(ChangeRecord("add", dn, entry=entry, lsn=1))
        wal.close()
        records, _, torn = scan_wal(path)
        assert not torn
        (ref,) = records[0].entry.values("ref")
        assert isinstance(ref, DN) and ref == target
        assert records[0].entry.values("level") == (3,)
        assert records[0].entry.values("name") == ("x",)

    def test_torn_tail_detected_and_prefix_kept(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(_record(1, "keep"))
        wal.close()
        whole = os.path.getsize(path)
        frame = encode_record(_record(2, "cut"))
        with open(path, "ab") as stream:
            stream.write(frame[: len(frame) // 2])
        records, valid_bytes, torn = scan_wal(path)
        assert torn
        assert valid_bytes == whole
        assert [r.lsn for r in records] == [1]

    def test_corrupt_checksum_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(_record(1))
        wal.commit(_record(2))
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # flip one payload byte of the last record
        with open(path, "wb") as stream:
            stream.write(data)
        records, _, torn = scan_wal(path)
        assert torn
        assert [r.lsn for r in records] == [1]

    def test_open_existing_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(_record(1))
        wal.close()
        with open(path, "ab") as stream:
            stream.write(b"\x00\x01garbage")
        wal2, records, torn = WriteAheadLog.open_existing(path, fsync=False)
        assert torn
        assert [r.lsn for r in records] == [1]
        # The tail was physically removed: appending cannot splice onto
        # garbage, and a second scan is clean.
        wal2.commit(_record(2))
        wal2.close()
        records, _, torn = scan_wal(path)
        assert [r.lsn for r in records] == [1, 2]
        assert not torn


class TestAppendDiscipline:
    def test_lsn_must_be_assigned(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"), fsync=False)
        with pytest.raises(WalError):
            wal.append(ChangeRecord("delete", DN.parse("dc=com")))

    def test_non_monotone_lsn_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"), fsync=False)
        wal.append(_record(2))
        with pytest.raises(WalError):
            wal.append(_record(2))

    def test_sync_past_buffered_fails_loudly(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"), fsync=False)
        with pytest.raises(WalError):
            wal.sync(7)

    def test_truncate_restarts_empty(self, tmp_path):
        path = str(tmp_path / "w")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(_record(1))
        wal.commit(_record(2))
        wal.truncate(2)
        assert os.path.getsize(path) == 0
        assert wal.durable_lsn == 2
        wal.commit(_record(3))
        records, _, _ = scan_wal(path)
        assert [r.lsn for r in records] == [3]


class TestGroupCommit:
    def test_concurrent_committers_share_flushes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"), fsync=False, flush_delay_s=0.003)
        threads = 8
        per_thread = 4
        lock = threading.Lock()
        next_lsn = [1]
        barrier = threading.Barrier(threads)

        def worker(_index):
            barrier.wait()
            for _ in range(per_thread):
                with lock:
                    lsn = next_lsn[0]
                    next_lsn[0] += 1
                    wal.append(_record(lsn, "n%d" % lsn))
                wal.sync(lsn)

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        total = threads * per_thread
        assert wal.appends == total
        assert wal.durable_lsn == total
        # The whole point: far fewer fsync batches than records.
        assert wal.flushes < total
        records, _, torn = scan_wal(wal.path)
        assert not torn
        assert [r.lsn for r in records] == list(range(1, total + 1))
        wal.close()

    def test_group_commit_batch_metric_accounts_every_record(self, tmp_path):
        meter = Meter()
        wal = WriteAheadLog(str(tmp_path / "w"), fsync=False)
        for lsn in range(1, 6):
            wal.commit(_record(lsn))
        wal.close()
        # One flush per solo commit; the batch sizes sum to the records.
        assert meter("repro_wal_group_commit_batch") == wal.flushes
        assert meter.sum("repro_wal_group_commit_batch") == wal.appends == 5
        assert meter("repro_wal_fsync_seconds") == wal.flushes

    def test_group_commit_batch_metric_sees_shared_flushes(self, tmp_path):
        meter = Meter()
        wal = WriteAheadLog(
            str(tmp_path / "w"),
            fsync=False,
            flush_delay_s=0.003,
        )
        threads = 8
        lock = threading.Lock()
        next_lsn = [1]
        barrier = threading.Barrier(threads)

        def worker(_index):
            barrier.wait()
            for _ in range(4):
                with lock:
                    lsn = next_lsn[0]
                    next_lsn[0] += 1
                    wal.append(_record(lsn, "n%d" % lsn))
                wal.sync(lsn)

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        wal.close()
        batches = meter("repro_wal_group_commit_batch")
        records = meter.sum("repro_wal_group_commit_batch")
        assert records == threads * 4     # every record in some batch
        assert batches == wal.flushes     # one observation per flush
        assert batches < threads * 4      # and batching actually happened

    def test_crash_poisons_every_waiter(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path / "w"),
            fsync=False,
            flush_delay_s=0.005,
            crash_plan=CrashPlan(crash_at_flush=0, torn_bytes=3),
        )
        outcomes = []
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait()
            try:
                wal.append(_record(index + 1, "n%d" % index))
                wal.sync(index + 1)
                outcomes.append("acked")
            except SimulatedCrash:
                outcomes.append("crashed")
            except WalError:
                outcomes.append("dead")

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        # Nobody got an ack: the crashed flush acknowledged nothing.
        assert "acked" not in outcomes
        # Recovery sees at most a torn fragment, never a whole record.
        records, _, _ = scan_wal(wal.path)
        assert records == []


class TestCrashMatrix:
    def test_recovery_is_deterministic_and_acked_complete(self, tmp_path):
        """Sweep the crash point across flushes and the tear across byte
        offsets; after every crash, recovery holds exactly the acked
        prefix (frames are ~100 bytes; tears land before, inside and
        beyond one frame's header and payload)."""
        for crash_at in (0, 1, 2, 3):
            for torn_bytes in (0, 3, 11, 60, 150):
                data_dir = tmp_path / ("case_%d_%d" % (crash_at, torn_bytes))
                data_dir.mkdir()
                path = str(data_dir / "wal.log")
                wal = WriteAheadLog(
                    path,
                    fsync=False,
                    crash_plan=CrashPlan(crash_at, torn_bytes),
                )
                acked = []
                for lsn in range(1, 7):
                    try:
                        wal.commit(_record(lsn, "n%d" % lsn))
                        acked.append(lsn)
                    except SimulatedCrash:
                        break
                assert len(acked) == crash_at, "crash fired at the wrong flush"
                first = scan_wal(path)
                # Physical truncation then rescan: same records (determinism).
                _wal2, records, _torn = WriteAheadLog.open_existing(path, fsync=False)
                _wal2.close()
                second = scan_wal(path)
                assert [r.lsn for r in first[0]] == [r.lsn for r in records]
                assert [r.lsn for r in second[0]] == [r.lsn for r in records]
                assert second[2] is False  # tail gone after truncation
                recovered = [r.lsn for r in records]
                # Every acked commit is present, in order, as a prefix.
                assert recovered[: len(acked)] == acked
                # No invented or reordered records: recovery is a prefix
                # of what was submitted.  A tear wide enough to cover a
                # whole frame may persist the next record even though its
                # ack was lost -- that is legitimate; a *partial* frame
                # never surfaces (checksum + length gate).
                assert recovered == list(range(1, len(recovered) + 1))
                assert len(recovered) <= len(acked) + 1
                for record in records:
                    assert record.entry is not None
                    assert record.entry.values("name") == ("n%d" % record.lsn,)


class TestScanReport:
    """Mid-file corruption observability: the structured scan report
    quantifies what recovery gave up -- recovered vs lost counts."""

    def _write(self, path, count):
        wal = WriteAheadLog(path, fsync=False)
        frames = []
        for lsn in range(1, count + 1):
            frames.append(encode_record(_record(lsn, "n%d" % lsn)))
            wal.commit(_record(lsn, "n%d" % lsn))
        wal.close()
        return frames

    def test_clean_log_reports_nothing_lost(self, tmp_path):
        from repro.txn.wal import scan_wal_report

        path = str(tmp_path / "wal.log")
        self._write(path, 4)
        report = scan_wal_report(path)
        assert [r.lsn for r in report.records] == [1, 2, 3, 4]
        assert not report.torn
        assert report.garbage_bytes == 0
        assert report.lost_records == 0
        assert report.valid_bytes == os.path.getsize(path)

    def test_mid_file_corruption_stops_the_scan_at_the_first_bad_frame(
            self, tmp_path):
        from repro.txn.wal import scan_wal_report

        path = str(tmp_path / "wal.log")
        frames = self._write(path, 5)
        # Flip a payload byte in the *third* frame: everything after it
        # is unreachable even though frames 4-5 are intact on disk.
        offset = len(frames[0]) + len(frames[1]) + len(frames[2]) - 1
        data = bytearray(open(path, "rb").read())
        data[offset] ^= 0xFF
        with open(path, "wb") as stream:
            stream.write(data)
        report = scan_wal_report(path)
        assert [r.lsn for r in report.records] == [1, 2]
        assert report.torn
        assert report.valid_bytes == len(frames[0]) + len(frames[1])
        assert report.garbage_bytes == len(frames[2]) + len(frames[3]) + len(frames[4])
        # The bad frame itself plus the two stranded good frames.
        assert report.lost_records == 3

    def test_torn_half_frame_counts_no_whole_records(self, tmp_path):
        from repro.txn.wal import scan_wal_report

        path = str(tmp_path / "wal.log")
        self._write(path, 2)
        whole = os.path.getsize(path)
        fragment = encode_record(_record(3, "cut"))
        with open(path, "ab") as stream:
            stream.write(fragment[: len(fragment) // 3])
        report = scan_wal_report(path)
        assert [r.lsn for r in report.records] == [1, 2]
        assert report.torn
        assert report.garbage_bytes == os.path.getsize(path) - whole
        assert report.lost_records == 0  # a fragment is not a record

    def test_recovery_from_mid_file_corruption_is_consistent(self, tmp_path):
        """DurableDirectory reopens to exactly the surviving prefix and
        keeps appending cleanly past the truncation point."""
        from repro.model.instance import DirectoryInstance
        from repro.txn.durable import DurableDirectory
        from repro.workload import synthetic_schema

        data_dir = str(tmp_path / "dir")
        durable = DurableDirectory.open(
            data_dir, DirectoryInstance(synthetic_schema()), fsync=False)
        durable.add("name=r", ["node"], name="r")
        for index in range(4):
            durable.add("name=e%d, name=r" % index, ["node"],
                        name="e%d" % index)
        durable.close()
        wal_path = os.path.join(data_dir, "wal.log")
        frames_len = os.path.getsize(wal_path)
        # Corrupt a byte ~60% in: the scan stops mid-file.
        data = bytearray(open(wal_path, "rb").read())
        data[int(frames_len * 0.6)] ^= 0xFF
        with open(wal_path, "wb") as stream:
            stream.write(data)
        reopened = DurableDirectory.open(data_dir, fsync=False)
        status = reopened.durability_status()
        assert status["torn_truncations"] == 1
        assert status["torn_bytes_truncated"] > 0
        # The scan stopped mid-file: only a strict prefix replayed.
        head = reopened.head_lsn
        assert 1 <= head < 5
        assert reopened.lookup("name=r") is not None
        for index in range(4):
            dn = "name=e%d, name=r" % index
            found = reopened.lookup(dn) is not None
            assert found == (index + 2 <= head)  # e{i} was lsn i+2
        # Appending continues from the recovered head; a clean reopen
        # then sees the surviving prefix plus the new write.
        reopened.add("name=after, name=r", ["node"], name="after")
        after_lsn = reopened.head_lsn
        reopened.close()
        final = DurableDirectory.open(data_dir, fsync=False)
        assert final.head_lsn == after_lsn
        assert final.lookup("name=after, name=r") is not None
        final.close()


class TestTornTruncationObservability:
    def test_metric_warning_and_status_flag(self, tmp_path):
        from repro.txn.wal import scan_wal_report

        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(_record(1, "keep"))
        wal.commit(_record(2, "keep2"))
        wal.close()
        fragment = encode_record(_record(3, "cut"))
        with open(path, "ab") as stream:
            stream.write(fragment[:-4])
        expected_garbage = scan_wal_report(path).garbage_bytes

        meter = Meter()
        with capture() as log:
            wal2, records, torn = WriteAheadLog.open_existing(path, fsync=False)
        wal2.close()
        assert torn
        assert [r.lsn for r in records] == [1, 2]
        assert wal2.torn_truncations == 1
        assert wal2.torn_bytes_truncated == expected_garbage
        assert meter("repro_wal_torn_truncations_total") == 1
        events = log.events("wal.torn_truncated")
        assert len(events) == 1
        assert events[0]["truncated_bytes"] == expected_garbage
        assert events[0]["recovered_records"] == 2
        assert events[0]["durable_lsn"] == 2

    def test_clean_open_reports_no_truncation(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync=False)
        wal.commit(_record(1))
        wal.close()
        meter = Meter()
        with capture() as log:
            wal2, _records, torn = WriteAheadLog.open_existing(path, fsync=False)
        wal2.close()
        assert not torn
        assert wal2.torn_truncations == 0
        assert meter("repro_wal_torn_truncations_total") == 0
        assert log.events("wal.torn_truncated") == []
