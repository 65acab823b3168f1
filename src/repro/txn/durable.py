"""The durable directory: checkpoint + WAL ahead of the update overlay.

On disk a :class:`DurableDirectory` is three files in one data directory::

    base.ldif       the last checkpoint (canonical reverse-dn order)
    MANIFEST.json   {"checkpoint_lsn": k, "schema": {...}}
    wal.log         every commit after the checkpoint, in lsn order

**Commit protocol.**  A mutation validates and advances the in-memory
version chain under the write lock, *buffering* its change record into
the WAL in the same critical section (so WAL order equals lsn order);
the fsync happens after the lock is released, via
:meth:`~repro.txn.wal.WriteAheadLog.sync` -- concurrent committers pile
up behind the flush barrier and share one fsync (group commit).  The
mutation call returns only once its record is on stable storage: the
return *is* the acknowledgement.

**Recovery.**  :meth:`DurableDirectory.open` loads the checkpoint, scans
the WAL (physically truncating any torn tail a crash left mid-batch),
and replays every intact record through the same delta application the
online path uses -- no re-validation, records are post-images.  Replay
asserts lsn continuity, so recovery is deterministic: same files, same
records, same state, same next lsn.

**Checkpointing.**  :meth:`DurableDirectory.checkpoint` quiesces writers,
folds the overlay into the master run, dumps it as LDIF (tmp + atomic
rename, manifest second), then truncates the WAL.  A crash between the
manifest rename and the WAL truncate is harmless: replay skips records
at or below the manifest's ``checkpoint_lsn``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from ..model.instance import DirectoryInstance
from ..model.ldif import dumps_ldif, loads_ldif
from ..model.schema import DirectorySchema
from ..obs.log import LOG
from ..obs.metrics import get_registry
from ..storage.maintenance import UpdatableDirectory
from ..storage.store import DirectoryStore
from .records import ChangeRecord
from .wal import WalError, WriteAheadLog

__all__ = ["DurableDirectory"]

BASE_FILE = "base.ldif"
MANIFEST_FILE = "MANIFEST.json"
WAL_FILE = "wal.log"


def _schema_to_payload(schema: DirectorySchema) -> Dict[str, Any]:
    return {
        "attributes": {
            name: schema.type_name_of(name) for name in sorted(schema.attributes)
        },
        "classes": {
            name: sorted(schema.allowed_attributes(name))
            for name in sorted(schema.classes)
        },
    }


def _schema_from_payload(payload: Dict[str, Any]) -> DirectorySchema:
    schema = DirectorySchema()
    for name, type_name in payload.get("attributes", {}).items():
        schema.add_attribute(name, type_name)
    for name, allowed in payload.get("classes", {}).items():
        schema.add_class(name, allowed)
    return schema


def _entries_ldif(entries) -> str:
    """LDIF text for already-validated entries (``dumps_ldif`` only
    iterates, so a plain entry list works as well as an instance)."""
    return dumps_ldif(entries)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        stream.write(text)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)


class DurableDirectory(UpdatableDirectory):
    """An :class:`UpdatableDirectory` whose commits survive crashes."""

    def __init__(
        self,
        store: DirectoryStore,
        wal: WriteAheadLog,
        data_dir: Optional[str] = None,
        checkpoint_lsn: int = 0,
        **options,
    ):
        # The chain is anchored at the checkpoint lsn: the master run *is*
        # the fold of everything up to checkpoint_lsn.
        super().__init__(store, start_lsn=checkpoint_lsn, **options)
        self.wal = wal
        self.data_dir = data_dir
        self.checkpoint_lsn = checkpoint_lsn
        #: Records replayed (and torn tail seen) by the last open().
        self.recovered_records = 0
        self.recovered_torn = False
        registry = get_registry()
        self._m_checkpoints = registry.counter(
            "repro_checkpoints_total",
            "Checkpoints written (LDIF dump + WAL truncation)",
        )
        self._m_recovered = registry.counter(
            "repro_recovered_records_total",
            "WAL records replayed during recovery",
        )

    # -- durability hooks (called by the commit pipeline) --------------------

    def _log_record(self, record: ChangeRecord) -> None:
        self.wal.append(record)

    def _after_commit(self, record: ChangeRecord) -> None:
        # Outside the write lock: concurrent committers group-commit.
        self.wal.sync(record.lsn)

    # -- opening and recovery ------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str,
        instance: Optional[DirectoryInstance] = None,
        page_size: int = 16,
        buffer_pages: int = 8,
        fsync: bool = False,
        crash_plan=None,
        flush_delay_s: float = 0.0,
        **options,
    ) -> "DurableDirectory":
        """Open (or create) the durable directory at ``data_dir``.

        A fresh directory needs ``instance`` as its initial state (it
        becomes checkpoint 0); reopening ignores ``instance`` and rebuilds
        from ``base.ldif`` + ``wal.log``.  ``fsync`` defaults to False
        because the simulated deployments (and tests) care about the
        *protocol*, not the platter.
        """
        os.makedirs(data_dir, exist_ok=True)
        base_path = os.path.join(data_dir, BASE_FILE)
        manifest_path = os.path.join(data_dir, MANIFEST_FILE)
        wal_path = os.path.join(data_dir, WAL_FILE)

        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
            checkpoint_lsn = int(manifest["checkpoint_lsn"])
            schema = _schema_from_payload(manifest["schema"])
            with open(base_path, "r", encoding="utf-8") as stream:
                checkpoint = loads_ldif(stream.read(), schema)
        else:
            if instance is None:
                raise ValueError(
                    "fresh data dir %r needs an initial instance" % data_dir
                )
            checkpoint_lsn = 0
            schema = instance.schema
            checkpoint = instance
            _atomic_write(base_path, _entries_ldif(checkpoint))
            _atomic_write(
                manifest_path,
                json.dumps(
                    {
                        "checkpoint_lsn": 0,
                        "schema": _schema_to_payload(schema),
                    },
                    indent=2,
                    sort_keys=True,
                ),
            )

        store = DirectoryStore.from_instance(
            checkpoint, page_size=page_size, buffer_pages=buffer_pages
        )
        wal, records, torn = WriteAheadLog.open_existing(
            wal_path,
            fsync=fsync,
            crash_plan=crash_plan,
            flush_delay_s=flush_delay_s,
        )
        if wal.durable_lsn < checkpoint_lsn:
            # Everything up to the checkpoint is durable in base.ldif even
            # though the (truncated) log no longer holds those records.
            with wal._cond:
                wal.durable_lsn = checkpoint_lsn
                wal._buffered_lsn = max(wal._buffered_lsn, checkpoint_lsn)
        directory = cls(
            store,
            wal,
            data_dir=data_dir,
            checkpoint_lsn=checkpoint_lsn,
            **options,
        )
        directory._replay(records)
        directory.recovered_torn = torn
        if records or torn:
            LOG.info(
                "txn.recovered",
                records=directory.recovered_records,
                torn_tail=torn,
                checkpoint_lsn=checkpoint_lsn,
                head_lsn=directory.head_lsn,
            )
        return directory

    def _replay(self, records: List[ChangeRecord]) -> None:
        """Apply recovered records through :meth:`~repro.storage.
        maintenance.UpdatableDirectory.apply_records` -- the same replay
        path replication uses -- without re-validation or re-logging (they
        are committed post-images).  Records at or below the checkpoint
        lsn are skipped as duplicates (the chain is anchored there), which
        covers a crash between the manifest rename and the WAL truncate."""
        applied = self.apply_records(records)
        self.recovered_records += len(applied)
        if applied:
            self._m_recovered.inc(len(applied))

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> int:
        """Fold everything into a fresh checkpoint and truncate the WAL;
        returns the checkpoint lsn.  Quiesces writers for the duration."""
        if self.data_dir is None:
            raise WalError("directory was not opened from a data dir")
        with self._write_lock:
            self.compact()
            lsn = self._chain.floor_lsn
            entries = list(self.store.scan_all())
            _atomic_write(
                os.path.join(self.data_dir, BASE_FILE), _entries_ldif(entries)
            )
            _atomic_write(
                os.path.join(self.data_dir, MANIFEST_FILE),
                json.dumps(
                    {
                        "checkpoint_lsn": lsn,
                        "schema": _schema_to_payload(self.schema),
                    },
                    indent=2,
                    sort_keys=True,
                ),
            )
            self.wal.truncate(lsn)
            self.checkpoint_lsn = lsn
        self._m_checkpoints.inc()
        LOG.info("txn.checkpoint", lsn=lsn, entries=len(entries))
        return lsn

    # -- status and lifecycle ------------------------------------------------

    def durability_status(self) -> Dict[str, Any]:
        """The admin-endpoint view of the write path."""
        return {
            "data_dir": self.data_dir,
            "checkpoint_lsn": self.checkpoint_lsn,
            "durable_lsn": self.wal.durable_lsn,
            "head_lsn": self.head_lsn,
            "floor_lsn": self.floor_lsn,
            "wal_appends": self.wal.appends,
            "wal_flushes": self.wal.flushes,
            "recovered_records": self.recovered_records,
            "recovered_torn_tail": self.recovered_torn,
            "torn_truncations": self.wal.torn_truncations,
            "torn_bytes_truncated": self.wal.torn_bytes_truncated,
        }

    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:
        return "DurableDirectory(%d stored, head_lsn=%d, durable_lsn=%d)" % (
            len(self.store),
            self.head_lsn,
            self.wal.durable_lsn,
        )
