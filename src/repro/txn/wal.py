"""The write-ahead log: append-only, checksummed, group-committed.

Frame format, per record::

    [4-byte big-endian payload length][4-byte CRC32 of payload][payload]

The payload is the JSON encoding of a
:class:`~repro.txn.records.ChangeRecord` (which carries its own lsn, so
the log is self-describing and lsn numbering survives checkpoints).

**Group commit.**  :meth:`WriteAheadLog.append` only buffers the encoded
record in memory (under the log lock, so buffer order equals lsn order);
:meth:`WriteAheadLog.sync` makes everything up to an lsn durable.  The
first syncing thread becomes the *flush leader*: it takes the whole
buffer, writes and fsyncs it as one batch, then wakes the waiters.
Writers that append while a flush is in flight pile up behind the barrier
and are flushed together by the next leader -- n concurrent committers
cost far fewer than n fsyncs, which is the entire point.

**Crash points.**  A seeded :class:`CrashPlan` -- in the spirit of the
test suite's network ``FaultPlan`` -- kills the process mid-flush:
at the scheduled flush the leader writes only a prefix of the batch
(``torn_bytes``) and raises :class:`SimulatedCrash`; every thread waiting
on that flush barrier gets the same crash (their commit was never
acknowledged).  The log object is dead afterwards, exactly like the
process it simulates.

**Recovery.**  :func:`scan_wal` replays the frames sequentially and stops
at the first incomplete or corrupt one -- a torn tail is *expected* after
a crash (the batch was cut mid-record) and is physically truncated on
:meth:`WriteAheadLog.open_existing`, so the next append cannot splice
onto garbage.  Every record before the tear is intact (CRC-checked), so
recovery is deterministic: same file, same records, same state.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from typing import List, Optional, Tuple

from ..obs.log import LOG
from ..obs.metrics import get_registry
from .records import ChangeRecord, RecordError

__all__ = [
    "CrashPlan",
    "SimulatedCrash",
    "WalError",
    "WalScanReport",
    "WriteAheadLog",
    "scan_wal",
    "scan_wal_report",
]

_HEADER = struct.Struct(">II")


class WalScanReport:
    """What a full scan of one log file found.

    ``records`` are the intact, CRC-checked records before the first bad
    frame; ``valid_bytes`` is where the intact prefix ends.  When ``torn``
    is True, ``garbage_bytes`` counts the bytes past the prefix and
    ``lost_records`` is a structural estimate of the whole frames among
    them (walking the length headers without trusting their payloads) --
    a torn *tail* loses at most the crashed batch, while mid-file
    corruption can orphan every record behind the bad frame.
    """

    __slots__ = ("records", "valid_bytes", "torn", "garbage_bytes", "lost_records")

    def __init__(self, records, valid_bytes, torn, garbage_bytes, lost_records):
        self.records = records
        self.valid_bytes = valid_bytes
        self.torn = torn
        self.garbage_bytes = garbage_bytes
        self.lost_records = lost_records

    def __repr__(self) -> str:
        return (
            "WalScanReport(records=%d, valid_bytes=%d, torn=%r, "
            "garbage_bytes=%d, lost_records=%d)"
            % (
                len(self.records),
                self.valid_bytes,
                self.torn,
                self.garbage_bytes,
                self.lost_records,
            )
        )


class WalError(RuntimeError):
    """Raised for invalid WAL usage (append after crash, bad lsn order)."""


class SimulatedCrash(RuntimeError):
    """The scheduled crash point fired: the 'process' died mid-flush.

    Raised from every commit waiting on the crashed flush barrier -- none
    of those commits was acknowledged, so recovery owes them nothing.
    """


class CrashPlan:
    """A deterministic crash schedule for the WAL.

    ``crash_at_flush`` kills the k-th physical flush (0-based, counted
    over the log's lifetime); ``torn_bytes`` is how many bytes of that
    batch reach the file before the crash -- sweeping it across a batch
    produces every torn-record shape recovery must survive (nothing,
    a cut header, a cut payload, whole records plus a stub).
    """

    def __init__(self, crash_at_flush: Optional[int] = None, torn_bytes: int = 0):
        if torn_bytes < 0:
            raise ValueError("torn_bytes must be non-negative")
        self.crash_at_flush = crash_at_flush
        self.torn_bytes = torn_bytes

    def fires_at(self, flush_index: int) -> bool:
        return self.crash_at_flush is not None and flush_index == self.crash_at_flush

    def __repr__(self) -> str:
        return "CrashPlan(crash_at_flush=%r, torn_bytes=%d)" % (
            self.crash_at_flush,
            self.torn_bytes,
        )


def encode_record(record: ChangeRecord) -> bytes:
    payload = json.dumps(
        record.to_payload(), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_wal_report(path: str) -> WalScanReport:
    """Read every intact record of the log at ``path``.

    The scan stops at the *first* bad frame -- a cut header, a cut
    payload, a CRC mismatch or an undecodable record -- whether that frame
    is the torn tail of a crashed flush or corruption in the middle of the
    file.  Everything before it is trustworthy (CRC-checked); everything
    after it is reported, not replayed: ``garbage_bytes`` and the
    structurally-estimated ``lost_records`` quantify what recovery gave
    up, so operators can tell a routine torn tail (0-1 lost frames) from
    media damage that orphaned a suffix.
    """
    records: List[ChangeRecord] = []
    valid_bytes = 0
    torn = False
    if not os.path.exists(path):
        return WalScanReport(records, valid_bytes, torn, 0, 0)
    with open(path, "rb") as stream:
        data = stream.read()
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            torn = True
            break
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            torn = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            record = ChangeRecord.from_payload(json.loads(payload.decode("utf-8")))
        except (ValueError, RecordError):
            torn = True
            break
        records.append(record)
        valid_bytes = end
        offset = end
    garbage_bytes = total - valid_bytes
    lost_records = 0
    if torn:
        # Structural walk past the bad frame: skip it, then count whole
        # frames by their length headers alone.  The payloads are not
        # trusted (never replayed) -- this only sizes the damage.
        cursor = offset
        if cursor + _HEADER.size <= total:
            length, _crc = _HEADER.unpack_from(data, cursor)
            bad_end = cursor + _HEADER.size + length
            if bad_end <= total:
                lost_records += 1  # the bad frame itself was whole-sized
                cursor = bad_end
                while cursor + _HEADER.size <= total:
                    length, _crc = _HEADER.unpack_from(data, cursor)
                    next_end = cursor + _HEADER.size + length
                    if next_end > total:
                        break
                    lost_records += 1
                    cursor = next_end
    return WalScanReport(records, valid_bytes, torn, garbage_bytes, lost_records)


def scan_wal(path: str) -> Tuple[List[ChangeRecord], int, bool]:
    """The classic scan result: ``(records, valid_bytes, torn)`` (see
    :func:`scan_wal_report` for the damage accounting)."""
    report = scan_wal_report(path)
    return report.records, report.valid_bytes, report.torn


class WriteAheadLog:
    """An append-only change log with group commit.

    :param path: the log file (created if absent).
    :param fsync: call ``os.fsync`` per flush (tests disable it for
        speed; the flush/crash accounting is identical either way).
    :param crash_plan: optional :class:`CrashPlan` applied to flushes.
    :param flush_delay_s: test hook -- sleep this long inside each flush
        (widens the group-commit window so batching is observable).
    """

    def __init__(
        self,
        path: str,
        fsync: bool = True,
        crash_plan: Optional[CrashPlan] = None,
        flush_delay_s: float = 0.0,
    ):
        self.path = path
        self.fsync = fsync
        self.crash_plan = crash_plan
        self.flush_delay_s = flush_delay_s
        self._file = open(path, "ab")
        self._cond = threading.Condition()
        self._buffer = bytearray()
        self._buffer_records = 0
        self._buffered_lsn = -1
        self._flushing = False
        self._crashed = False
        #: Highest lsn guaranteed on stable storage.
        self.durable_lsn = -1
        #: Physical flush batches written (each is >= 1 record).
        self.flushes = 0
        #: Records appended over the log's lifetime.
        self.appends = 0
        #: Torn/corrupt tails physically truncated by :meth:`open_existing`
        #: over this object's lifetime, and the bytes the last one cut.
        self.torn_truncations = 0
        self.torn_bytes_truncated = 0
        registry = get_registry()
        self._m_appends = registry.counter(
            "repro_wal_appends_total", "Records appended to the WAL"
        )
        self._m_flushes = registry.counter(
            "repro_wal_flushes_total", "Physical WAL flush batches (one fsync each)"
        )
        self._m_bytes = registry.counter(
            "repro_wal_bytes_total", "Bytes written to the WAL"
        )
        self._m_fsync = registry.histogram(
            "repro_wal_fsync_seconds", "Wall time of one WAL flush+fsync"
        )
        self._m_group_commit = registry.histogram(
            "repro_wal_group_commit_batch",
            "Records folded into one group-commit flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self._m_torn = registry.counter(
            "repro_wal_torn_truncations_total",
            "Torn/corrupt WAL tails physically truncated on reopen",
        )

    # -- the write path ------------------------------------------------------

    def append(self, record: ChangeRecord) -> int:
        """Buffer one encoded record; returns its lsn.  Not yet durable --
        call :meth:`sync` (or :meth:`commit`) to reach stable storage."""
        if record.lsn is None:
            raise WalError("records must carry an lsn before logging")
        frame = encode_record(record)
        with self._cond:
            if self._crashed:
                raise SimulatedCrash("WAL crashed; reopen to recover")
            if record.lsn <= self._buffered_lsn and self._buffered_lsn >= 0:
                raise WalError(
                    "non-monotone lsn %d after %d" % (record.lsn, self._buffered_lsn)
                )
            self._buffer += frame
            self._buffer_records += 1
            self._buffered_lsn = record.lsn
            self.appends += 1
            self._m_appends.inc()
        return record.lsn

    def sync(self, lsn: Optional[int] = None) -> None:
        """Block until everything up to ``lsn`` (default: everything
        appended so far) is durable.  Concurrent callers share flushes:
        one leader writes the whole buffered batch, the rest wait on the
        barrier."""
        with self._cond:
            if lsn is None:
                lsn = self._buffered_lsn
            while self.durable_lsn < lsn:
                if self._crashed:
                    raise SimulatedCrash("WAL crashed during group commit")
                if self._flushing:
                    # A leader is writing; our record is either in its
                    # batch or in the buffer the *next* leader takes.
                    self._cond.wait()
                    continue
                if not self._buffer:
                    # Nothing buffered and not durable: lsn from the
                    # future (caller bug) -- fail loudly, don't hang.
                    raise WalError("sync(%d) past buffered lsn" % lsn)
                batch = bytes(self._buffer)
                batch_records = self._buffer_records
                batch_lsn = self._buffered_lsn
                self._buffer = bytearray()
                self._buffer_records = 0
                self._flushing = True
                try:
                    self._cond.release()
                    try:
                        self._write_batch(batch, batch_records, batch_lsn)
                    finally:
                        self._cond.acquire()
                except BaseException:
                    self._crashed = True
                    self._flushing = False
                    self._cond.notify_all()
                    raise
                self._flushing = False
                self.durable_lsn = batch_lsn
                self._cond.notify_all()

    def commit(self, record: ChangeRecord) -> int:
        """append + sync in one call."""
        lsn = self.append(record)
        self.sync(lsn)
        return lsn

    def _write_batch(self, batch: bytes, batch_records: int, batch_lsn: int) -> None:
        flush_index = self.flushes
        plan = self.crash_plan
        started = time.perf_counter()
        if plan is not None and plan.fires_at(flush_index):
            torn = batch[: min(plan.torn_bytes, len(batch))]
            if torn:
                self._file.write(torn)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            raise SimulatedCrash(
                "crash point at flush %d (%d of %d bytes written)"
                % (flush_index, len(torn), len(batch))
            )
        if self.flush_delay_s:
            time.sleep(self.flush_delay_s)
        self._file.write(batch)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.flushes += 1
        self._m_flushes.inc()
        self._m_bytes.inc(len(batch))
        self._m_group_commit.observe(batch_records)
        self._m_fsync.observe(time.perf_counter() - started)
        if LOG.enabled:
            LOG.debug(
                "wal.flush", records=batch_records, bytes=len(batch),
                lsn=batch_lsn,
            )

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open_existing(cls, path: str, **options) -> Tuple["WriteAheadLog", List[ChangeRecord], bool]:
        """Open (or create) the log at ``path`` for appending.

        Scans the existing records and *physically truncates* any torn
        tail a crash left behind -- observably: the truncation counts in
        ``repro_wal_torn_truncations_total``, logs a structured warning
        with the byte and estimated record loss, and is reported on the
        returned log (:attr:`torn_truncations`,
        :attr:`torn_bytes_truncated`).  Returns ``(wal, records, torn)``
        with ``wal.durable_lsn`` set to the last recovered record's lsn."""
        report = scan_wal_report(path)
        records, torn = report.records, report.torn
        if torn:
            with open(path, "r+b") as stream:
                stream.truncate(report.valid_bytes)
        wal = cls(path, **options)
        if records:
            with wal._cond:
                wal.durable_lsn = records[-1].lsn
                wal._buffered_lsn = records[-1].lsn
        if torn:
            wal.torn_truncations += 1
            wal.torn_bytes_truncated = report.garbage_bytes
            wal._m_torn.inc()
            if LOG.enabled:
                LOG.warning(
                    "wal.torn_truncated",
                    path=path,
                    truncated_bytes=report.garbage_bytes,
                    lost_records=report.lost_records,
                    recovered_records=len(records),
                    durable_lsn=wal.durable_lsn,
                )
        return wal, records, torn

    def records_since(self, lsn: int) -> List[ChangeRecord]:
        """The durable log suffix: every record with ``record.lsn > lsn``,
        in lsn order.  This is the shipping/catch-up read -- replication
        resyncs a lagging replica from a checkpoint plus exactly this
        suffix.  Only *flushed* records are visible (the group-commit
        buffer holds unacknowledged commits, which owe nobody anything);
        asking below the checkpoint a :meth:`truncate` folded away returns
        only what the log still holds.
        """
        with self._cond:
            if self._crashed:
                raise SimulatedCrash("WAL crashed; reopen to recover")
        records, _valid, _torn = scan_wal(self.path)
        return [record for record in records if record.lsn > lsn]

    def truncate(self, next_durable_lsn: int) -> None:
        """Drop every logged record (they are folded into a checkpoint
        whose lsn is ``next_durable_lsn``); the file restarts empty."""
        with self._cond:
            if self._flushing:
                raise WalError("cannot truncate during a flush")
            self._file.truncate(0)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._buffer = bytearray()
            self._buffer_records = 0
            self._buffered_lsn = next_durable_lsn
            self.durable_lsn = next_durable_lsn

    def close(self) -> None:
        with self._cond:
            if not self._file.closed:
                self._file.close()

    def __repr__(self) -> str:
        return "WriteAheadLog(%r, durable_lsn=%d, flushes=%d)" % (
            self.path,
            self.durable_lsn,
            self.flushes,
        )
