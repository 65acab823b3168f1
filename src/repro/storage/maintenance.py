"""Directory maintenance: updates against the read-optimised store.

Directories are read-mostly (the paper's engine is built around a
clustered, sorted master run), so updates follow the classic differential
scheme of that era: mutations accumulate in a validated overlay ahead of
the master, and :meth:`UpdatableDirectory.compact` merges the overlay into
a fresh master run in one co-scan -- ``O((N + |log|)/B)`` page transfers
-- and rebuilds the secondary indices.

Queries do **not** wait for that merge.  The overlay is one more sorted
list, and the engine's own technique -- sorted-list merging over
reverse-dn order -- reads through it: a :class:`StoreView` co-scans the
master range of a subtree with the slice of the overlay that falls inside
it, ``O(range + delta)``, with the overlay's share charged to the pager as
``ceil(k / B)`` logical page reads so the engine's I/O bounds stay whole.
Compaction is maintenance only: it runs when ``auto_compact_at`` pending
actions have accumulated (inside the writer that crossed the threshold,
or on a :class:`~repro.txn.agent.MaintenanceAgent` attached via
:meth:`UpdatableDirectory.attach_maintenance`), at checkpoints, on
replica resync and on explicit calls -- never from a read.
(:meth:`UpdatableDirectory.engine` is the explicit compact-then-read
convenience, and the reference arm the overlay differential suite
compares merged reads against.)

The overlay itself is a :class:`~repro.txn.mvcc.VersionChain`: every
validated mutation becomes one :class:`~repro.txn.records.ChangeRecord`,
commits one immutable :class:`~repro.txn.mvcc.Version` and is assigned
the version's lsn.  Readers take a :class:`StoreView` -- a (master run,
overlay snapshot) pair captured atomically -- and keep answering as of
that lsn no matter what writers or compactions do next:

- the snapshot's cumulative delta is never mutated once published (see
  :mod:`repro.txn.mvcc`);
- the master run a view pins is *deferred-freed*: compaction installs the
  merged run immediately but the superseded run's pages are only
  returned to the pager when the last pinning view closes.

Observers subscribe to one of two streams, both dispatched through one
guarded loop: *record listeners* get every committed
:class:`~repro.txn.records.ChangeRecord` (cache maintenance, live
statistics, heat map and replication all read it), *compaction listeners*
get each freshly installed master store.

Supported mutations:

- :meth:`~UpdatableDirectory.add` -- insert a new entry (validated against
  the schema exactly like :meth:`DirectoryInstance.add`);
- :meth:`~UpdatableDirectory.delete` -- remove an entry (optionally a
  whole subtree);
- :meth:`~UpdatableDirectory.modify` -- replace / add / remove attribute
  values of an existing entry (``objectClass`` cannot be modified; delete
  and re-add instead).
"""

from __future__ import annotations

import sys
import threading
import time
from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from ..model.dn import DN, subtree_upper_bound
from ..model.entry import Entry
from ..model.instance import DirectoryInstance, InstanceError
from ..model.schema import OBJECT_CLASS, DirectorySchema
from ..obs.log import LOG
from ..obs.metrics import get_registry
from ..txn.mvcc import Snapshot, VersionChain
from ..txn.records import ChangeRecord

from .runs import RunWriter
from .store import DirectoryStore

__all__ = [
    "CompactionListener",
    "ReplayError",
    "StoreView",
    "UpdatableDirectory",
    "UpdateError",
    "RecordListener",
]


class UpdateError(InstanceError):
    """Raised for invalid updates, with a structured ``code`` so callers
    can map failures to protocol result codes without matching on the
    message text."""

    #: The dn names no current entry.
    NO_SUCH_ENTRY = "noSuchEntry"
    #: An add collided with an existing entry (dn is a key).
    ALREADY_EXISTS = "alreadyExists"
    #: A non-recursive delete hit an entry with children.
    HAS_CHILDREN = "hasChildren"
    #: A modify touched an RDN attribute or ``objectClass``.
    PROTECTED_ATTRIBUTE = "protectedAttribute"
    #: Anything else (schema violations surfaced as updates).
    OTHER = "other"

    def __init__(self, message: str, code: str = OTHER):
        super().__init__(message)
        self.code = code


class ReplayError(RuntimeError):
    """Raised when replaying committed change records fails structurally
    (a record without an lsn, or an lsn gap against the version chain).
    Both crash recovery (:class:`~repro.txn.durable.DurableDirectory`) and
    replication (:class:`~repro.dist.replication.ReplicatedContext`) apply
    records through :meth:`UpdatableDirectory.apply_records`, so both
    surface the same failure shape."""


#: A change-record observer: called with the committed
#: :class:`~repro.txn.records.ChangeRecord` (lsn assigned) -- the one
#: stream every mutation is published on.  The cache maintainer, the live
#: statistics, the heat map and replication hook in here.
#: Online mutations attach the pre-image entry for deletes/modifies
#: (``record.pre_image``); replayed records carry None there.
RecordListener = Callable[[ChangeRecord], None]

#: A compaction observer: called with the freshly installed master
#: :class:`~repro.storage.store.DirectoryStore` after every compaction.
#: Statistics fold their full rebuild in here.
CompactionListener = Callable[[DirectoryStore], None]


class StoreView:
    """A pinned, immutable read view: one master run + one overlay
    snapshot, captured atomically.  Close it (or use it as a context
    manager) to release the pin so superseded runs can be freed.

    The view offers the store's read interface (:meth:`scan_pages`,
    :meth:`scan_subtree`, :meth:`fetch_positions`,
    :meth:`page_range_for_subtree`, ``pager``, ``schema``, the secondary
    indices), so a query engine runs over it and reads *through* the
    overlay: the master range is co-scanned with the slice of the
    overlay's sorted dns that falls inside it.  With
    nothing pending inside the range it hands back the store's own scan --
    no added work, identical page I/O."""

    __slots__ = (
        "store", "snapshot", "pager", "schema", "indices", "_directory", "_closed",
    )

    def __init__(
        self, directory: "UpdatableDirectory", store: DirectoryStore, snapshot: Snapshot
    ):
        self.store = store
        self.snapshot = snapshot
        # The store's read interface, as of this view (plain attributes:
        # scans read ``schema`` once per entry).
        self.pager = store.pager
        self.schema = store.schema
        self.indices = store.indices
        self._directory = directory
        self._closed = False

    @property
    def lsn(self) -> int:
        return self.snapshot.lsn

    def page_range_for_subtree(self, base: DN):
        """The *master* page range of the subtree (what the planner costs
        a scan by; the overlay is memory-resident and bounded)."""
        return self.store.page_range_for_subtree(base)

    def scan_pages(
        self, base: DN, max_depth: Optional[int] = None
    ) -> Iterator[List[Entry]]:
        """The entries of the subtree at ``base`` as of this view's lsn, in
        order, no further than ``max_depth`` levels below it, one list per
        master page read (see :meth:`DirectoryStore.scan_pages`):
        ``O(range + delta)``."""
        delta = self.snapshot.delta
        if not delta:
            return self.store.scan_pages(base, max_depth)
        low, high = delta.span(base)
        limit = sys.maxsize
        if max_depth is not None:
            limit = len(base.key()) + max_depth
            if max_depth == 0:
                high = min(high, low + 1)  # the base's own image leads the span
        if delta.covering_root(base) is not None:
            # The whole master range is deleted; only newer adds remain.
            return self._merged((), low, high, (), limit)
        roots = delta.roots_under(base)
        master = self.store.scan_pages(base, max_depth)
        if low == high and not roots:
            return master
        return self._merged(master, low, high, roots, limit)

    def scan_subtree(
        self, base: DN, max_depth: Optional[int] = None
    ) -> Iterator[Entry]:
        """:meth:`scan_pages`, an entry at a time."""
        for page in self.scan_pages(base, max_depth):
            yield from page

    def scan_all(self) -> Iterator[Entry]:
        """Every entry as of this view's lsn, in order (what compaction
        writes out)."""
        delta = self.snapshot.delta
        if not delta:
            return self.store.scan_all()
        return chain.from_iterable(self._merged(
            self.store.master.pages(), 0, len(delta.order), delta.roots
        ))

    def fetch_positions(self, positions: List[int]) -> List[Entry]:
        """The secondary-index path: master entries at ``positions`` the
        overlay has not replaced or deleted, merged with the overlay's own
        entries (which no index covers -- the caller's scope and filter
        test sifts them like any fetched entry)."""
        fetched = self.store.fetch_positions(positions)
        delta = self.snapshot.delta
        if not delta:
            return fetched
        return list(chain.from_iterable(
            self._merged((fetched,), 0, len(delta.order), delta.roots)
        ))

    def _merged(
        self,
        master: Iterable[List[Entry]],
        low: int,
        high: int,
        roots,
        limit: int = sys.maxsize,
    ) -> Iterator[List[Entry]]:
        """Sorted-list merge of the master ``pages`` with ``order[low:high]``
        of the overlay, one list per master page (the overlay entries that
        sort before a master entry go into its page; the ones after the
        last master entry make one more list).  Precedence: an overlay
        image wins over the master entry at the same dn (an entry
        replaces it, a point delete drops it); a master entry under one of
        the deleted ``roots`` is dropped; overlay entries are always kept
        -- one under a deleted root was added after the delete -- unless
        their key is longer than ``limit`` (a depth-bounded scan:
        ``master`` is bounded already)."""
        delta = self.snapshot.delta
        point, order = delta.point, delta.order
        spans = [(key, subtree_upper_bound(key)) for key, _ in roots]
        span_count = len(spans)
        span_at = 0
        at = low
        next_key = order[at][0] if at < high else None
        try:
            for records in master:
                page = []
                for entry in records:
                    key = entry._dn._key
                    replaced = False
                    while next_key is not None and next_key <= key:
                        replaced = next_key == key  # sorted: only the last can be
                        image = point[order[at][1]] if len(next_key) <= limit else None
                        at += 1
                        next_key = order[at][0] if at < high else None
                        if image is not None:
                            page.append(image)
                    if replaced:
                        continue
                    while span_at < span_count and key >= spans[span_at][1]:
                        span_at += 1
                    if span_at == span_count or key < spans[span_at][0]:
                        page.append(entry)
                if page:
                    yield page
            page = []
            while at < high:
                overlay_key, dn = order[at]
                image = point[dn] if len(overlay_key) <= limit else None
                at += 1
                if image is not None:
                    page.append(image)
            if page:
                yield page
        finally:
            # Charged when the scan ends or is abandoned: what it walked,
            # not the slice.
            self._directory._charge_overlay(
                at - low + span_at + (span_at < span_count)
            )

    # -- point reads ----------------------------------------------------------

    def lookup(self, dn: DN) -> Optional[Entry]:
        verdict = self.snapshot.overlay_lookup(dn)
        if verdict is not None:
            return verdict[1]  # entry for adds/modifies, None for deletes
        return next(self.store.scan_subtree(dn, 0), None)

    def children(self, dn: DN) -> Iterator[DN]:
        """Dns of the entry's current children, in order."""
        for entry in self.scan_subtree(dn, 1):
            if entry.dn != dn:
                yield entry.dn

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._directory._release_store(self.store)

    def __enter__(self) -> "StoreView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "StoreView(lsn=%d, %d stored, %d pending)" % (
            self.lsn, len(self.store), len(self.snapshot.delta),
        )


class UpdatableDirectory:
    """A directory store plus a versioned pending-update overlay."""

    def __init__(
        self,
        store: DirectoryStore,
        auto_compact_at: int = 1024,
        start_lsn: int = 0,
    ):
        self.store = store
        self.schema = store.schema
        #: Compact automatically once this many mutations are pending.
        self.auto_compact_at = auto_compact_at
        #: ``start_lsn`` anchors the version chain when the store already
        #: represents the fold of every update up to that lsn (a durable
        #: checkpoint, or a replication snapshot installed by resync).
        self._chain = VersionChain(start_lsn=start_lsn)
        #: Serialises validate+commit so concurrent writers cannot both
        #: pass the same uniqueness check.
        self._write_lock = threading.RLock()
        #: Guards the (store pointer, pins, retired) triple.
        self._state_lock = threading.Lock()
        #: Only one compaction materialises at a time.
        self._compact_lock = threading.Lock()
        self._pins: Dict[int, int] = {}
        self._retired: Dict[int, DirectoryStore] = {}
        self._agent = None
        self.compactions = 0
        #: Superseded master runs whose free was deferred behind a pin.
        self.deferred_frees = 0
        self._record_listeners: List[RecordListener] = []
        self._compaction_listeners: List[CompactionListener] = []
        #: Count of listener callbacks that raised (dispatch continues
        #: past failures; see :meth:`_dispatch`).
        self.listener_errors = 0
        registry = get_registry()
        self._compactions_metric = registry.counter(
            "repro_compactions_total",
            "Update-log compactions merged into the master run",
        )
        self._compaction_seconds = registry.histogram(
            "repro_compaction_seconds",
            "Wall time of one overlay compaction (merge + index rebuild)",
        )
        self._updates_metric = registry.counter(
            "repro_updates_total",
            "Committed directory updates by kind",
            labelnames=("kind",),
        )
        self._update_errors_metric = registry.counter(
            "repro_update_errors_total",
            "Rejected directory updates by structured error code",
            labelnames=("code",),
        )
        self._overlay_merged_metric = registry.counter(
            "repro_overlay_merged_entries_total",
            "Overlay entries walked by overlay-merged scans (searches, write "
            "validation and compaction alike)",
        )
        self._listener_errors_metric = registry.counter(
            "repro_update_listener_errors_total",
            "Update listeners that raised during dispatch (skipped, not fatal)",
            labelnames=("kind",),
        )

    # -- update log observers ---------------------------------------------

    def add_record_listener(self, listener: RecordListener) -> None:
        """Subscribe to committed change records (lsn included); query
        caches, statistics and replication hook in here."""
        self._record_listeners.append(listener)

    def remove_record_listener(self, listener: RecordListener) -> None:
        """Unsubscribe (idempotent)."""
        if listener in self._record_listeners:
            self._record_listeners.remove(listener)

    def add_compaction_listener(self, listener: CompactionListener) -> None:
        """Subscribe to compactions (called with the new master store once
        it is installed).  Live statistics fold their rebuild in here."""
        self._compaction_listeners.append(listener)

    def remove_compaction_listener(self, listener: CompactionListener) -> None:
        if listener in self._compaction_listeners:
            self._compaction_listeners.remove(listener)

    def _dispatch(self, listeners: List[Callable], event, kind: str) -> None:
        # A broken listener must not abort the (already committed) update
        # or compaction, nor starve the listeners after it: record the
        # failure and move on.
        for listener in list(listeners):
            try:
                listener(event)
            except Exception:
                self.listener_errors += 1
                self._listener_errors_metric.inc(kind=kind)

    # -- building ------------------------------------------------------------

    @classmethod
    def from_instance(
        cls,
        instance: DirectoryInstance,
        page_size: int = 16,
        buffer_pages: int = 8,
        **options,
    ) -> "UpdatableDirectory":
        store = DirectoryStore.from_instance(
            instance, page_size=page_size, buffer_pages=buffer_pages
        )
        return cls(store, **options)

    # -- snapshot views -------------------------------------------------------

    def acquire_view(self) -> StoreView:
        """Pin a consistent (master run, overlay snapshot) pair.  The view
        answers as of its lsn until closed; close promptly -- a pinned
        superseded run keeps its pages allocated."""
        with self._state_lock:
            store = self.store
            self._pins[id(store)] = self._pins.get(id(store), 0) + 1
            snapshot = self._chain.snapshot()
        return StoreView(self, store, snapshot)

    def snapshot(self) -> Snapshot:
        """The overlay snapshot alone (no store pin)."""
        return self._chain.snapshot()

    def _release_store(self, store: DirectoryStore) -> None:
        doomed = None
        with self._state_lock:
            key = id(store)
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            else:
                self._pins.pop(key, None)
                doomed = self._retired.pop(key, None)
        if doomed is not None:
            doomed.master.free()

    def _charge_overlay(self, consumed: int) -> None:
        """Account one merged scan's overlay share: the overlay is memory
        resident, so the ``consumed`` entries the scan walked cost
        ceil(consumed / B) logical page reads (buffer hits) -- the
        sorted-list merge's second operand, charged like the first."""
        if consumed:
            pager = self.store.pager  # one pager for the directory's life
            pager.charge_reads(-(-consumed // pager.page_size))
            self._overlay_merged_metric.inc(consumed)

    @property
    def head_lsn(self) -> int:
        """The lsn of the newest committed update."""
        return self._chain.head_lsn

    @property
    def floor_lsn(self) -> int:
        """The lsn already folded into the master run."""
        return self._chain.floor_lsn

    # -- current-state lookups -------------------------------------------------

    def lookup(self, dn: Union[DN, str]) -> Optional[Entry]:
        """The entry at ``dn`` as of all committed updates."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        with self.acquire_view() as view:
            return view.lookup(dn)

    def pending(self) -> int:
        """Distinct overlay actions not yet folded into the master, O(1)."""
        return self._chain.pending()

    def __len__(self) -> int:
        """The stored count adjusted by the overlay, without compacting:
        pending entries less pending point deletes (O(pending)) less the
        master entries under each pending subtree delete (one range scan
        each).
        Exact right after compaction; in between, a modify counts its dn
        twice."""
        with self.acquire_view() as view:
            delta = view.snapshot.delta
            live = sum(image is not None for image in delta.point.values())
            doomed = sum(
                1 for _, root in delta.roots for _entry in view.store.scan_subtree(root)
            )
            return len(view.store) + 2 * live - len(delta.point) - doomed

    # -- mutations ----------------------------------------------------------

    def add(
        self,
        dn: Union[DN, str],
        classes: Iterable[str],
        attributes: Optional[Dict[str, Iterable[Any]]] = None,
        **kw_attributes: Any,
    ) -> Entry:
        """Insert a new entry (schema-validated)."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        with self._write_lock:
            if self.lookup(dn) is not None:
                self._fail(
                    "dn is a key: %s already present" % dn, UpdateError.ALREADY_EXISTS
                )
            entry = _validated_entry(
                self.schema, dn, classes, attributes, kw_attributes
            )
            record = self._commit(ChangeRecord("add", dn, entry=entry))
        self._finish(record)
        return entry

    def delete(self, dn: Union[DN, str], recursive: bool = False) -> None:
        """Remove the entry at ``dn``; with ``recursive`` its subtree too."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        with self._write_lock:
            with self.acquire_view() as view:
                current = view.lookup(dn)
                if current is None:
                    self._fail("no entry at %s" % dn, UpdateError.NO_SUCH_ENTRY)
                if not recursive and any(True for _ in view.children(dn)):
                    self._fail(
                        "%s has children; pass recursive=True" % dn,
                        UpdateError.HAS_CHILDREN,
                    )
            doomed = ChangeRecord("delete", dn, subtree=recursive)
            # The validation lookup is the pre-image; listeners that keep
            # incremental state (live statistics) consume it.
            doomed.pre_image = current
            record = self._commit(doomed)
        self._finish(record)

    def modify(
        self,
        dn: Union[DN, str],
        replace: Optional[Dict[str, Iterable[Any]]] = None,
        add_values: Optional[Dict[str, Iterable[Any]]] = None,
        remove_values: Optional[Dict[str, Iterable[Any]]] = None,
    ) -> Entry:
        """Change attribute values of an existing entry.

        ``replace`` overwrites an attribute's whole value set (an empty
        iterable removes the attribute); ``add_values`` and
        ``remove_values`` adjust individual values.  The RDN attributes and
        ``objectClass`` cannot be touched."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        with self._write_lock:
            current = self.lookup(dn)
            if current is None:
                self._fail("no entry at %s" % dn, UpdateError.NO_SUCH_ENTRY)
            protected = set(dn.rdn.attributes()) | {OBJECT_CLASS}
            values: Dict[str, List[Any]] = {
                attr: list(current.values(attr))
                for attr in current.attributes()
                if attr != OBJECT_CLASS
            }
            for attr, vals in (replace or {}).items():
                self._check_unprotected(attr, protected)
                vals = list(vals)
                if vals:
                    values[attr] = vals
                else:
                    values.pop(attr, None)
            for attr, vals in (add_values or {}).items():
                self._check_unprotected(attr, protected)
                values.setdefault(attr, []).extend(vals)
            for attr, vals in (remove_values or {}).items():
                self._check_unprotected(attr, protected)
                doomed = {str(v) for v in vals}
                values[attr] = [
                    v for v in values.get(attr, []) if str(v) not in doomed
                ]
                if not values[attr]:
                    del values[attr]
            entry = _validated_entry(self.schema, dn, current.classes, values, {})
            changed = ChangeRecord("modify", dn, entry=entry)
            changed.pre_image = current
            record = self._commit(changed)
        self._finish(record)
        return entry

    def _check_unprotected(self, attr: str, protected) -> None:
        if attr in protected:
            self._fail(
                "cannot modify protected attribute %r" % attr,
                UpdateError.PROTECTED_ATTRIBUTE,
            )

    def _fail(self, message: str, code: str) -> None:
        self._update_errors_metric.inc(code=code)
        raise UpdateError(message, code)

    # -- the commit pipeline -------------------------------------------------

    def _advance(self, record: ChangeRecord):
        """Commit the record's delta as one new version of the chain."""
        if record.kind != "delete":
            return self._chain.advance(adds={record.dn: record.entry})
        if record.subtree:
            return self._chain.advance(delete_subtrees=(record.dn,))
        return self._chain.advance(deletes=(record.dn,))

    def _commit(self, record: ChangeRecord) -> ChangeRecord:
        """Assign the record's lsn, log it, then advance the version chain
        with its delta; runs under the write lock so lsn order equals
        commit order.  Logging comes first so a record the log cannot
        take (an encode failure) aborts the write with nothing visible --
        the chain never runs ahead of the log."""
        record.lsn = self._chain.head_lsn + 1
        self._log_record(record)
        version = self._advance(record)
        assert version.lsn == record.lsn
        return record

    # -- the replay path (crash recovery and replication) --------------------

    def apply_record(self, record: ChangeRecord, notify: bool = False) -> bool:
        """Apply one *committed* post-image record without re-validation.

        This is the replay path shared by crash recovery and replication:
        the record was validated when it first committed, so it is applied
        verbatim.  Records at or below the current head lsn are skipped
        (idempotent re-delivery: a checkpoint already folded them, or a
        replica saw the batch twice); an lsn *gap* raises
        :class:`ReplayError` -- the log the records came from is missing a
        prefix and applying more would corrupt the replica.

        Returns True when the record advanced the chain, False when it was
        a duplicate.  ``notify`` forwards applied records to the record
        listeners (replicas keep their caches fresh through the same hook
        the online path uses); recovery leaves it off because listeners
        attach after open.
        """
        if record.lsn is None:
            raise ReplayError("cannot replay a record without an lsn: %r" % record)
        with self._write_lock:
            head = self.head_lsn
            if record.lsn <= head:
                return False
            if record.lsn != head + 1:  # checked before anything is applied
                raise ReplayError(
                    "lsn gap in replay: log says %d, chain says %d"
                    % (record.lsn, head + 1)
                )
            self._advance(record)
        if notify:
            self._updates_metric.inc(kind=record.kind)
            self._dispatch(self._record_listeners, record, record.kind)
        return True

    def apply_records(
        self, records: Iterable[ChangeRecord], notify: bool = False
    ) -> List[ChangeRecord]:
        """Apply a batch through :meth:`apply_record`; returns the records
        actually applied (duplicates skipped)."""
        applied = [r for r in records if self.apply_record(r, notify=notify)]
        if applied:
            self._maybe_compact()
        return applied

    def _log_record(self, record: ChangeRecord) -> None:
        """Durability hook, called under the write lock with the lsn
        assigned, right before the chain advances (a WAL buffers the
        record here); raising aborts the commit."""

    def _after_commit(self, record: ChangeRecord) -> None:
        """Durability hook, called *outside* the write lock -- a WAL
        group-commits here, so concurrent committers share fsyncs."""

    def _finish(self, record: ChangeRecord) -> None:
        self._after_commit(record)
        self._updates_metric.inc(kind=record.kind)
        self._dispatch(self._record_listeners, record, record.kind)
        self._maybe_compact()

    # -- compaction ----------------------------------------------------------

    def attach_maintenance(self, agent) -> None:
        """Route auto-compaction through a
        :class:`~repro.txn.agent.MaintenanceAgent` instead of running it
        inside the writer that crossed the threshold."""
        self._agent = agent

    def detach_maintenance(self) -> None:
        self._agent = None

    def _maybe_compact(self) -> None:
        if self.pending() < self.auto_compact_at:
            return
        agent = self._agent
        if agent is not None:
            if agent.submit("compact", self.compact, dedupe=True):
                return
            if agent.running:
                return  # an equal request is already queued or running
        self.compact()

    def compact(self) -> DirectoryStore:
        """Merge the committed overlay into a fresh master run -- the
        view's own overlay-merged full scan, written out.  Readers are
        never blocked: they keep the view they pinned; the superseded run
        is freed when its last pin drops."""
        with self._compact_lock:
            view = self.acquire_view()
            try:
                folded = view.snapshot.pending()
                if not folded:
                    return view.store
                started = time.perf_counter()
                pager = view.pager
                writer = RunWriter(pager)
                writer.extend(view.scan_all())
                new_master = writer.close()

                new_store = DirectoryStore(pager, self.schema, new_master)
                if view.store.indices:
                    new_store.build_indices(view.store.indices)

                fold_lsn = view.snapshot.lsn
                with self._state_lock:
                    old_store = self.store
                    self.store = new_store
                    self._chain.truncate(fold_lsn)
                    # The old run is pinned at least by our own view;
                    # defer its free to the last release.
                    self._retired[id(old_store)] = old_store
                    if self._pins.get(id(old_store), 0) > 1:
                        self.deferred_frees += 1
                elapsed = time.perf_counter() - started
                self.compactions += 1
                self._compactions_metric.inc()
                self._compaction_seconds.observe(elapsed)
                LOG.info(
                    "maintenance.compact",
                    seconds=round(elapsed, 6),
                    folded=folded,
                    lsn=fold_lsn,
                    entries=len(new_store),
                )
                self._dispatch(self._compaction_listeners, new_store, "compact")
                return new_store
            finally:
                view.close()

    def engine(self, **options):
        """A query engine over the current state (compacts if needed)."""
        from ..engine.engine import QueryEngine

        self.compact()
        return QueryEngine(self.store, **options)

    def __repr__(self) -> str:
        return "UpdatableDirectory(%d stored, %d pending)" % (
            len(self.store),
            self.pending(),
        )


def _validated_entry(
    schema: DirectorySchema,
    dn: DN,
    classes: Iterable[str],
    attributes: Optional[Dict[str, Iterable[Any]]],
    kw_attributes: Dict[str, Any],
) -> Entry:
    """Build one schema-validated entry by round-tripping through a
    scratch instance (reusing all of Definition 3.2's checks)."""
    scratch = DirectoryInstance(schema)
    return scratch.add(dn, classes, attributes, **kw_attributes)
