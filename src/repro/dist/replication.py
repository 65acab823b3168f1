"""Log-shipped replication with epoch-fenced failover.

Footnote 4 of the paper: "Secondary directory servers ensure that one
unreachable network will not necessarily cut off network directory
service."  This module is that availability story, rebuilt on the durable
write path of :mod:`repro.txn`:

- every mutation of the replication group commits through an
  :class:`~repro.storage.maintenance.UpdatableDirectory` (optionally a
  :class:`~repro.txn.durable.DurableDirectory` with a real WAL), producing
  a typed, lsn-stamped :class:`~repro.txn.records.ChangeRecord`;
- each node keeps one copy of the records it applied: its
  :attr:`ReplicaNode.applied` suffix.  :meth:`ReplicatedContext.sync`
  ships each secondary the primary's suffix above its acked lsn, applied
  through :meth:`~repro.storage.maintenance.UpdatableDirectory.apply_records`
  -- the *same* replay path crash recovery uses, so replication and
  recovery cannot drift apart.  After each pass every node trims its
  suffix at the group's minimum acked lsn;
- writes honour an acknowledgment level (``ack="primary"|"quorum"|"all"``)
  with per-replica acked-lsn tracking; a replica behind the *changelog
  floor* (the quorum-th highest acked lsn at ``ack="quorum"``, else the
  minimum, and never below a reopened primary's checkpoint) catches up by
  *resync*: a checkpoint image plus the log suffix (for a durable
  primary, literally ``base.ldif`` +
  :meth:`~repro.txn.wal.WriteAheadLog.records_since`);
- failover is **epoch-fenced**: a monotone epoch stamps every shipped
  batch and write acknowledgment.  :meth:`ReplicatedContext.promote` picks
  the most-caught-up live replica holding every acknowledged write and
  bumps the epoch; a deposed primary's writes and ships are rejected with
  ``ReplicationError(code="fenced")`` -- split-brain is impossible by
  construction, and the state machine in ``tests/dist/test_consistency.py``
  checks it over generated schedules.

:class:`AvailabilityRouter` is unchanged in spirit: it answers atomic
queries for the context, preferring the current primary and failing over
to a live secondary within the staleness bound.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple, Union

from ..engine.engine import QueryEngine
from ..model.dn import DN
from ..model.entry import Entry
from ..model.instance import DirectoryInstance
from ..model.schema import DirectorySchema
from ..obs.log import LOG
from ..obs.metrics import get_registry
from ..query.ast import AtomicQuery
from ..storage.maintenance import UpdatableDirectory
from ..storage.store import DirectoryStore
from ..txn.durable import BASE_FILE, DurableDirectory
from ..txn.records import ChangeRecord
from .errors import NetworkError, ReplicationError
from .network import SimulatedNetwork

__all__ = [
    "AvailabilityRouter",
    "ReplicaNode",
    "ReplicatedContext",
    "ReplicationError",
]

ACK_LEVELS = ("primary", "quorum", "all")

#: Records a replica may lag behind its primary before ``/healthz``
#: reports degraded; :meth:`ReplicatedContext.replication_status`
#: reports it as ``lag_alert``.
REPLICATION_LAG_ALERT = 8


class ReplicaNode:
    """One member of a replication group.

    Each node owns a full :class:`UpdatableDirectory` (the primary's may
    be durable), the epoch it last heard, and the suffix of change records
    it holds above :attr:`applied_floor`: what the primary ships from, and
    what a promoted node ships from next.
    """

    def __init__(
        self,
        name: str,
        schema: DirectorySchema,
        directory: Optional[UpdatableDirectory] = None,
        page_size: int = 16,
        buffer_pages: int = 8,
    ):
        self.name = name
        self.schema = schema
        self._page_size = page_size
        self._buffer_pages = buffer_pages
        if directory is None:
            directory = UpdatableDirectory.from_instance(
                DirectoryInstance(schema),
                page_size=page_size,
                buffer_pages=buffer_pages,
            )
        self.directory = directory
        #: Highest epoch this node has heard (writes/batches below it are
        #: fenced).
        self.epoch = 1
        #: ``"primary"`` / ``"secondary"`` / ``"deposed"`` (a primary that
        #: learned of a higher epoch the hard way).
        self.role = "secondary"
        #: Records applied above :attr:`applied_floor`, contiguous lsns.
        self.applied: List[ChangeRecord] = []
        #: The lsn the applied suffix starts after (snapshot lsn or trim).
        self.applied_floor = directory.head_lsn
        #: Set by promotion when this node's log diverged from the new
        #: lineage (an unacknowledged tail); only a resync clears it.
        self.needs_resync = False
        self.directory.add_record_listener(self._track)

    def _track(self, record: ChangeRecord) -> None:
        # Local commits (this node acting as primary) join the suffix the
        # same way shipped records do.
        self.applied.append(record)

    @property
    def applied_lsn(self) -> int:
        """The lsn of the newest change this node holds."""
        return self.directory.head_lsn

    def trim(self, lsn: int) -> None:
        """Drop the suffix's records at or below ``lsn``."""
        if lsn > self.applied_floor:
            del self.applied[: lsn - self.applied_floor]
            self.applied_floor = lsn

    # -- the receive side ----------------------------------------------------

    def receive(self, epoch: int, records: List[ChangeRecord]) -> List[ChangeRecord]:
        """Apply one shipped batch.  A batch from a *lower* epoch than this
        node has heard is the fence: the shipper was deposed."""
        if epoch < self.epoch:
            raise ReplicationError(
                "%s at epoch %d rejects batch from epoch %d"
                % (self.name, self.epoch, epoch),
                code=ReplicationError.FENCED,
            )
        self.epoch = epoch
        if self.role == "deposed":
            self.role = "secondary"  # following the new lineage again
        applied = self.directory.apply_records(records)
        wal = getattr(self.directory, "wal", None)
        if wal is not None and applied:
            # A durable node logs what it is shipped, or recovering it as
            # primary again would find an lsn gap in its WAL.
            for record in applied:
                wal.append(record)
            wal.sync()
        self.applied.extend(applied)
        return applied

    def install_snapshot(
        self, epoch: int, entries: List[Entry], snapshot_lsn: int
    ) -> None:
        """Replace this node's whole state with a checkpoint image taken
        at ``snapshot_lsn`` (the resync path; a log suffix may follow
        through :meth:`receive`)."""
        if epoch < self.epoch:
            raise ReplicationError(
                "%s at epoch %d rejects snapshot from epoch %d"
                % (self.name, self.epoch, epoch),
                code=ReplicationError.FENCED,
            )
        instance = DirectoryInstance(self.schema)
        for entry in entries:
            instance.add_entry(entry)
        store = DirectoryStore.from_instance(
            instance, page_size=self._page_size, buffer_pages=self._buffer_pages
        )
        if isinstance(self.directory, DurableDirectory):
            self.directory.close()  # the snapshot replaces its WAL'd state
        self.directory = UpdatableDirectory(store, start_lsn=snapshot_lsn)
        self.directory.add_record_listener(self._track)
        self.epoch = epoch
        if self.role == "deposed":
            self.role = "secondary"
        self.applied = []
        self.applied_floor = snapshot_lsn
        self.needs_resync = False

    def adopt_directory(self, directory: UpdatableDirectory,
                        applied: List[ChangeRecord], applied_floor: int) -> None:
        """Swap in a recovered directory (a durable primary reopened after
        a crash) with its surviving record suffix."""
        self.directory = directory
        self.directory.add_record_listener(self._track)
        self.applied = list(applied)
        self.applied_floor = applied_floor

    def __repr__(self) -> str:
        return "ReplicaNode(%r, %s, epoch=%d, lsn=%d)" % (
            self.name, self.role, self.epoch, self.applied_lsn,
        )


class ReplicatedContext:
    """One naming context served by a primary and N secondaries.

    Mutations go through the current primary's directory and are recorded
    -- typed, lsn-stamped -- in the primary's applied suffix; :meth:`sync`
    ships each secondary the part above its acked lsn.  ``ack`` sets the
    write acknowledgment level: ``"primary"`` acknowledges after the local
    commit, ``"quorum"``/``"all"`` ship synchronously and raise
    ``ReplicationError(code="ackFailed")`` when not enough replicas
    acknowledged (the write is then *not* acknowledged and may be lost on
    failover -- exactly what the replication state machine checks).
    """

    def __init__(
        self,
        context: Union[DN, str],
        schema: DirectorySchema,
        secondaries: int = 1,
        network: Optional[SimulatedNetwork] = None,
        page_size: int = 16,
        buffer_pages: int = 8,
        ack: str = "primary",
        durable_dir: Optional[str] = None,
        wal_fsync: bool = False,
    ):
        if ack not in ACK_LEVELS:
            raise ValueError("ack must be one of %s" % (ACK_LEVELS,))
        if isinstance(context, str):
            context = DN.parse(context)
        self.context = context
        self.schema = schema
        self.network = network or SimulatedNetwork()
        self.ack = ack
        self._page_size = page_size
        self._buffer_pages = buffer_pages

        primary_directory = None
        if durable_dir is not None:
            primary_directory = DurableDirectory.open(
                durable_dir,
                instance=DirectoryInstance(schema),
                page_size=page_size,
                buffer_pages=buffer_pages,
                fsync=wal_fsync,
            )
        self.nodes: Dict[str, ReplicaNode] = {}
        primary = ReplicaNode(
            "primary", schema, directory=primary_directory,
            page_size=page_size, buffer_pages=buffer_pages,
        )
        primary.role = "primary"
        self.nodes[primary.name] = primary
        for index in range(secondaries):
            node = ReplicaNode(
                "secondary%d" % index, schema,
                page_size=page_size, buffer_pages=buffer_pages,
            )
            self.nodes[node.name] = node

        #: The group's monotone epoch; bumped by every promotion.
        self.epoch = 1
        self.primary_name = "primary"
        #: Records at or below this lsn are no longer shipped (a replica
        #: behind it catches up by resync); the primary's suffix above it
        #: is the changelog.
        self.changelog_floor = primary.applied_floor
        #: Per-node highest acknowledged lsn, from the primary's view.
        self._acked: Dict[str, int] = {name: 0 for name in self.nodes}
        #: Every ship/resync/promote event:
        #: ``(kind, epoch, node, from_lsn, to_lsn)`` -- the replication
        #: state machine checks per-epoch lsn monotonicity on this.
        self.ship_log: List[Tuple[str, int, str, int, int]] = []
        #: Last ship failure per replica (cleared by a successful ship).
        self.last_ship_errors: Dict[str, NetworkError] = {}
        self.resyncs = 0
        self.failovers = 0

        registry = get_registry()
        self._m_shipped = registry.counter(
            "repro_replication_shipped_records_total",
            "Change records shipped to and applied by secondaries",
        )
        self._m_changelog = registry.gauge(
            "repro_replication_changelog_records",
            "Outstanding (untruncated) replication changelog records",
        )
        self._m_epoch = registry.gauge(
            "repro_replication_epoch", "Current replication epoch"
        )
        self._m_lag = registry.gauge(
            "repro_replication_lag_records",
            "Records a replica is behind the primary",
            labelnames=("replica",),
        )
        self._m_acked = registry.gauge(
            "repro_replication_acked_lsn",
            "Highest lsn a replica has acknowledged",
            labelnames=("replica",),
        )
        self._m_fenced = registry.counter(
            "repro_replication_fenced_total",
            "Writes/ships rejected because the issuer's epoch was stale",
        )
        self._m_failovers = registry.counter(
            "repro_replication_failovers_total",
            "Promotions of a secondary to primary",
        )
        self._m_resyncs = registry.counter(
            "repro_replication_resyncs_total",
            "Replica catch-ups via checkpoint snapshot + log suffix",
        )
        self._m_ack_failures = registry.counter(
            "repro_replication_ack_failures_total",
            "Writes that missed their acknowledgment level",
        )
        self._update_gauges()

    # -- group plumbing ------------------------------------------------------

    def node(self, name: str) -> ReplicaNode:
        return self.nodes[name]

    @property
    def primary(self) -> ReplicaNode:
        return self.nodes[self.primary_name]

    @property
    def secondaries(self) -> List[ReplicaNode]:
        """Every non-primary member, in creation order."""
        return [n for n in self.nodes.values() if n.name != self.primary_name]

    def quorum(self) -> int:
        """Majority of the whole group (primary included)."""
        return len(self.nodes) // 2 + 1

    def _required_acks(self) -> int:
        if self.ack == "primary":
            return 1
        if self.ack == "quorum":
            return self.quorum()
        return len(self.nodes)

    def _fence(self, node: ReplicaNode, action: str) -> None:
        """Reject an action by a node that is not the current primary.
        A node that *was* primary (stale epoch) is fenced; anything else
        simply is not the primary."""
        if node.name == self.primary_name and node.epoch == self.epoch:
            return
        if node.role in ("primary", "deposed"):
            node.role = "deposed"
            self._m_fenced.inc()
            LOG.warning(
                "replication.fenced",
                node=node.name, action=action,
                node_epoch=node.epoch, group_epoch=self.epoch,
            )
            raise ReplicationError(
                "%s fenced at epoch %d (group epoch %d): %s rejected"
                % (node.name, node.epoch, self.epoch, action),
                code=ReplicationError.FENCED,
            )
        raise ReplicationError(
            "%s is not the primary (%s is)" % (node.name, self.primary_name),
            code=ReplicationError.NOT_PRIMARY,
        )

    # -- mutation (through the current primary) ------------------------------

    def add(self, dn, classes, attributes=None, **kw) -> Entry:
        return self.write_via(
            self.primary_name, "add", dn, classes, attributes, **kw
        )

    def add_entry(self, entry: Entry) -> Entry:
        """Record an already-built entry (mirroring an existing server's
        holdings into this replicated context)."""
        attributes = {
            attr: list(entry.values(attr)) for attr in entry.attributes()
        }
        return self.add(entry.dn, entry.classes, attributes)

    def delete(self, dn, recursive: bool = False) -> None:
        self.write_via(self.primary_name, "delete", dn, recursive=recursive)

    def modify(self, dn, replace=None, add_values=None, remove_values=None) -> Entry:
        return self.write_via(
            self.primary_name, "modify", dn,
            replace=replace, add_values=add_values, remove_values=remove_values,
        )

    def write_via(self, *args, **kw):
        """``write_via(node_name, op, ...)``: one client write issued
        *through a specific node's handle* -- the current primary in
        normal operation; a deposed primary here is exactly the
        split-brain attempt the epoch fence rejects.  (The leading
        arguments are positional-only so they can never collide with
        ``add``'s keyword attributes.)"""
        node_name, kind = args[0], args[1]
        args = args[2:]
        node = self.nodes[node_name]
        self._fence(node, "write")
        method = getattr(node.directory, kind)
        result = method(*args, **kw)
        lsn = node.directory.head_lsn
        self._acked[node.name] = lsn
        self._enforce_ack(lsn)
        self._update_gauges()
        return result

    def _enforce_ack(self, lsn: int) -> None:
        required = self._required_acks()
        if required <= 1:
            return
        self.sync()
        acked = 1 + sum(
            1
            for node in self.secondaries
            if self._acked.get(node.name, 0) >= lsn
        )
        if acked < required:
            self._m_ack_failures.inc()
            LOG.warning(
                "replication.ack_failed",
                lsn=lsn, acked=acked, required=required, ack=self.ack,
            )
            raise ReplicationError(
                "write at lsn %d reached %d of %d required replicas"
                % (lsn, acked, required),
                code=ReplicationError.ACK_FAILED,
            )

    # -- shipping ------------------------------------------------------------

    def changelog_length(self) -> int:
        """The primary's records above the changelog floor."""
        primary = self.primary
        return len(primary.applied) - (self.changelog_floor - primary.applied_floor)

    def acked_lsn(self, name: str) -> int:
        return self._acked.get(name, 0)

    def lag(self, name: str) -> int:
        """Records the node is behind the current primary (0 for the
        primary itself)."""
        if name == self.primary_name:
            return 0
        head = self.primary.applied_lsn
        return max(0, head - min(self._acked.get(name, 0), head))

    def sync(self) -> Dict[str, int]:
        """Ship the current primary's suffix to every secondary; returns
        records caught up per secondary (an unreachable replica scores 0
        and is retried next round)."""
        return self.ship_via(self.primary_name)

    def ship_via(self, node_name: str) -> Dict[str, int]:
        """The shipping pass, issued through a specific node's handle
        (fenced exactly like writes)."""
        node = self.nodes[node_name]
        self._fence(node, "ship")
        shipped: Dict[str, int] = {}
        for replica in self.secondaries:
            shipped[replica.name] = self._ship_to(node, replica)
        self._truncate_changelog()
        self._update_gauges()
        return shipped

    def _ship_to(self, primary: ReplicaNode, replica: ReplicaNode) -> int:
        before = self._acked.get(replica.name, 0)
        try:
            if replica.needs_resync or before < self.changelog_floor:
                return self._resync(primary, replica)
            # The suffix's lsns are contiguous from its floor, which is at
            # or below the changelog floor, so the batch is a slice.
            batch = primary.applied[before - primary.applied_floor:]
            if not batch:
                return 0
            self.network.send(
                primary.name, replica.name, "changelog", len(batch)
            )
            applied = replica.receive(self.epoch, batch)
            self._acked[replica.name] = replica.applied_lsn
            self.last_ship_errors.pop(replica.name, None)
            self.ship_log.append(
                ("ship", self.epoch, replica.name, batch[0].lsn, batch[-1].lsn)
            )
            self._m_shipped.inc(len(applied))
            if LOG.enabled:
                LOG.debug(
                    "replication.ship",
                    replica=replica.name, records=len(batch),
                    epoch=self.epoch, upto_lsn=batch[-1].lsn,
                )
            return replica.applied_lsn - before
        except NetworkError as exc:
            self.last_ship_errors[replica.name] = exc
            if LOG.enabled:
                LOG.debug(
                    "replication.ship_failed",
                    replica=replica.name, code=exc.code,
                )
            return 0

    def _resync(self, primary: ReplicaNode, replica: ReplicaNode) -> int:
        """Catch a replica up from a checkpoint image plus the log suffix.
        For a durable primary that is literally ``base.ldif`` + the WAL
        suffix; otherwise the primary folds its overlay and snapshots the
        store."""
        before = self._acked.get(replica.name, 0)
        directory = primary.directory
        suffix: List[ChangeRecord] = []
        if isinstance(directory, DurableDirectory) and directory.data_dir:
            snapshot_lsn = directory.checkpoint_lsn
            entries = self._load_checkpoint(directory)
            suffix = directory.wal.records_since(snapshot_lsn)
        else:
            directory.compact()
            entries = list(directory.store.scan_all())
            snapshot_lsn = directory.floor_lsn
        self.network.send(primary.name, replica.name, "snapshot", len(entries))
        replica.install_snapshot(self.epoch, entries, snapshot_lsn)
        if suffix:
            self.network.send(
                primary.name, replica.name, "changelog", len(suffix)
            )
            replica.receive(self.epoch, suffix)
        self._acked[replica.name] = replica.applied_lsn
        self.last_ship_errors.pop(replica.name, None)
        self.resyncs += 1
        self._m_resyncs.inc()
        self.ship_log.append(
            ("resync", self.epoch, replica.name, snapshot_lsn,
             replica.applied_lsn)
        )
        LOG.info(
            "replication.resync",
            replica=replica.name, snapshot_lsn=snapshot_lsn,
            suffix_records=len(suffix), entries=len(entries),
            epoch=self.epoch,
        )
        return replica.applied_lsn - before

    def _load_checkpoint(self, directory: DurableDirectory) -> List[Entry]:
        from ..model.ldif import loads_ldif

        path = os.path.join(directory.data_dir, BASE_FILE)
        with open(path, "r", encoding="utf-8") as stream:
            return list(loads_ldif(stream.read(), self.schema))

    def _truncate_changelog(self) -> None:
        """Raise the changelog floor to what every required acknowledger
        has seen (all members at ack="primary"/"all", the quorum
        otherwise); a replica behind it resyncs from a checkpoint.  Then
        trim every node's suffix at the group's minimum acked lsn: a
        promoted node still holds every record above any member's acked
        lsn, and a dead member pins the minimum."""
        acked = sorted(self._acked.values(), reverse=True)
        if self.ack == "quorum":
            floor = acked[self.quorum() - 1]
        else:
            floor = acked[-1]
        self.changelog_floor = max(self.changelog_floor, floor)
        for node in self.nodes.values():
            node.trim(acked[-1])

    # -- failover ------------------------------------------------------------

    def promote(self, name: Optional[str] = None, exclude=()) -> str:
        """Fail over: bump the epoch and install a new primary -- the
        most-caught-up candidate outside ``exclude`` (pass the unreachable
        nodes), or ``name`` explicitly.  Past ``ack="primary"`` only a node
        holding every acknowledged write is a candidate.  The deposed
        primary keeps its stale epoch, so its next write or ship attempt is
        fenced.  Returns the new primary's name."""
        excluded = set(exclude) | {self.primary_name}
        # A diverged node (needs_resync) holds a forked log; promoting it
        # would resurrect records the group already disowned.  Every lsn
        # up to ``committed`` reached the required replicas: a candidate
        # below it would lose an acknowledged write.
        acked = sorted(self._acked.values(), reverse=True)
        committed = 0 if self.ack == "primary" else acked[self._required_acks() - 1]
        candidates = [
            node
            for node in self.nodes.values()
            if node.name not in excluded and not node.needs_resync
            and node.applied_lsn >= committed and name in (None, node.name)
        ]
        if not candidates:
            raise ReplicationError(
                "no promotion candidate for %s (excluded: %s, committed lsn %d)"
                % (self.context, sorted(excluded), committed),
                code=ReplicationError.NO_CANDIDATE,
            )
        pick = max(candidates, key=lambda n: (n.applied_lsn, n.name))
        old = self.primary
        fork_lsn = pick.applied_lsn
        self.epoch += 1
        old.role = "deposed"
        self.primary_name = pick.name
        pick.role = "primary"
        pick.epoch = self.epoch
        # Rebase shipping bookkeeping onto the new lineage: its changelog
        # is the new primary's applied suffix.
        self.changelog_floor = pick.applied_floor
        self._acked[pick.name] = fork_lsn
        for node in self.nodes.values():
            if node is pick:
                continue
            if node.applied_lsn > fork_lsn:
                # The node holds records the new lineage never had -- the
                # old primary's unacknowledged tail.  It must resync.
                node.needs_resync = True
            self._acked[node.name] = min(
                self._acked.get(node.name, 0), fork_lsn
            )
        self.failovers += 1
        self._m_failovers.inc()
        self.ship_log.append(
            ("promote", self.epoch, pick.name, fork_lsn, fork_lsn)
        )
        LOG.info(
            "replication.promoted",
            new_primary=pick.name, deposed=old.name,
            epoch=self.epoch, fork_lsn=fork_lsn,
        )
        self._update_gauges()
        return pick.name

    def reopen_primary(self) -> ReplicaNode:
        """Recover the current primary's durable state after a (simulated)
        process crash: reopen checkpoint + WAL, rebase the node's suffix
        on what survived, and raise the changelog floor to the checkpoint
        it recovered from (the records under it exist only in
        ``base.ldif``, so a replica behind it resyncs).  Acknowledged
        writes are durable before they are acknowledged, so none is lost
        here."""
        node = self.primary
        directory = node.directory
        if not isinstance(directory, DurableDirectory) or not directory.data_dir:
            raise ReplicationError(
                "primary %s has no durable data dir to recover from"
                % node.name,
                code=ReplicationError.OTHER,
            )
        data_dir = directory.data_dir
        directory.close()
        reopened = DurableDirectory.open(
            data_dir,
            page_size=self._page_size,
            buffer_pages=self._buffer_pages,
            fsync=directory.wal.fsync,
        )
        survived = reopened.wal.records_since(reopened.checkpoint_lsn)
        node.adopt_directory(reopened, survived, reopened.checkpoint_lsn)
        self.changelog_floor = max(self.changelog_floor, reopened.checkpoint_lsn)
        self._acked[node.name] = node.applied_lsn
        LOG.info(
            "replication.primary_recovered",
            node=node.name, head_lsn=node.applied_lsn,
            recovered_records=len(survived),
            torn_tail=reopened.recovered_torn,
        )
        self._update_gauges()
        return node

    # -- status ------------------------------------------------------------------

    def replication_status(self) -> Dict[str, Any]:
        """The admin-endpoint view of the replication group."""
        head = self.primary.applied_lsn
        replicas = {}
        for node in self.nodes.values():
            replicas[node.name] = {
                "role": "primary" if node.name == self.primary_name else node.role,
                "epoch": node.epoch,
                "acked_lsn": self._acked.get(node.name, 0),
                "applied_lsn": node.applied_lsn,
                "lag": self.lag(node.name),
                "needs_resync": node.needs_resync,
            }
        return {
            "context": str(self.context),
            "epoch": self.epoch,
            "primary": self.primary_name,
            "ack": self.ack,
            "head_lsn": head,
            "changelog_records": self.changelog_length(),
            "changelog_floor_lsn": self.changelog_floor,
            "resyncs": self.resyncs,
            "failovers": self.failovers,
            "replicas": replicas,
            "lag_alert": REPLICATION_LAG_ALERT,
        }

    def _update_gauges(self) -> None:
        self._m_epoch.set(self.epoch)
        self._m_changelog.set(self.changelog_length())
        for node in self.nodes.values():
            self._m_lag.set(self.lag(node.name), replica=node.name)
            self._m_acked.set(
                self._acked.get(node.name, 0), replica=node.name
            )

    def __repr__(self) -> str:
        return "ReplicatedContext(%s, epoch=%d, primary=%s, %d nodes)" % (
            self.context, self.epoch, self.primary_name, len(self.nodes),
        )


class AvailabilityRouter:
    """Routes atomic queries to the context's current primary, failing
    over to a live secondary within the staleness bound when the primary
    is marked down.

    ``max_lag`` bounds how many unacknowledged records a serving secondary
    may be behind; the default 0 keeps the strict in-sync-only behaviour.
    Every evaluation appends its routing trail -- one ``(replica,
    decision)`` pair per candidate considered, decisions being ``"down"``,
    ``"lag=N"`` or ``"served"`` -- to :attr:`decisions`, so tests can
    assert *why* a replica was skipped.
    """

    def __init__(self, replicated: ReplicatedContext, max_lag: int = 0):
        if max_lag < 0:
            raise ValueError("max_lag must be non-negative")
        self.replicated = replicated
        self.max_lag = max_lag
        self._down: set = set()
        self.served_by: List[str] = []
        #: Per-evaluate routing trails, newest last.
        self.decisions: List[List[Tuple[str, str]]] = []

    def mark_down(self, name: str) -> None:
        self._down.add(name)

    def mark_up(self, name: str) -> None:
        self._down.discard(name)

    def candidates(self) -> List[str]:
        """The current primary first, then the secondaries in creation
        order -- failover prefers the freshest authority."""
        replicated = self.replicated
        return [replicated.primary_name] + [
            node.name for node in replicated.secondaries
        ]

    def evaluate(self, query: AtomicQuery, max_lag: Optional[int] = None) -> List[Entry]:
        """Serve one atomic query from the best acceptable replica;
        ``max_lag`` overrides the router's staleness bound per call."""
        limit = self.max_lag if max_lag is None else max_lag
        replicated = self.replicated
        trail: List[Tuple[str, str]] = []
        self.decisions.append(trail)
        for name in self.candidates():
            if name in self._down:
                trail.append((name, "down"))
                continue
            lag = replicated.lag(name)
            if lag > limit:
                # Stale past the bound: skip rather than serve old data.
                trail.append((name, "lag=%d" % lag))
                continue
            # The service's read path: a pinned view merges the pending
            # overlay into the scan, so a read never compacts the replica.
            with replicated.nodes[name].directory.acquire_view() as view:
                run = QueryEngine(view).atomic_run(query)
                try:
                    entries = run.to_list()
                finally:
                    run.free()
            trail.append((name, "served"))
            self.served_by.append(name)
            return entries
        raise ReplicationError(
            "no live replica within lag %d for %s" % (limit, replicated.context),
            code=ReplicationError.NO_REPLICA,
        )
