"""Timing shims: spans recorded from outside the program.

The traced pass rebinds each layer's public callables -- module
attributes where ``server/service.py`` or ``engine/*.py`` imported them by
name, class attributes otherwise -- to wrappers that record one span per
call: name, start, duration, parent span, and one op id shared by every
span under the same ``search`` or write.  A span's *self time* is its
duration minus the part its child spans cover.  A child is charged to its
parent from shim entry to shim exit but reports only the time inside the
wrapped call, so the shims' own bookkeeping lands in nobody's self time:
the self times of an op sum to (an estimate of) its *untraced* cost.
Spans stay in memory until the benchmark writes them out.  Nothing under
``src/`` changes; switching the source to the program's own span tracer is
a later issue.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "TARGETS", "SPAN_COLUMNS"]

#: Column order of one span row in ``trace_<workload>.json``.  Times are
#: microseconds; ``start_us`` counts from the tracer's creation.  For a
#: generator span (``storage.scan``) ``start_us`` is its first resumption
#: and ``duration_us`` the time spent inside it, summed over resumptions.
SPAN_COLUMNS = (
    "id", "parent", "op", "thread", "name", "start_us", "duration_us", "self_us",
)

# (module, class or None, attribute, span name, flavour).  Flavours: "call"
# times a plain call; "generator" times every ``next()``; "sized" is a call
# whose result length is also counted (entries fetched / returned).
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.server.service", "DirectoryService", "search", "server.search", "sized"),
    ("repro.server.service", "DirectoryService", "add", "server.write", "call"),
    ("repro.server.service", "DirectoryService", "modify", "server.write", "call"),
    ("repro.server.service", "DirectoryService", "delete", "server.write", "call"),
    ("repro.server.service", None, "parse_query", "query.parse", "call"),
    ("repro.query.ast", "AtomicQuery", "__str__", "query.render", "call"),
    ("repro.query.ast", "And", "__str__", "query.render", "call"),
    ("repro.query.ast", "Or", "__str__", "query.render", "call"),
    ("repro.query.ast", "Diff", "__str__", "query.render", "call"),
    ("repro.query.ast", "HierarchySelect", "__str__", "query.render", "call"),
    ("repro.query.ast", "SimpleAggSelect", "__str__", "query.render", "call"),
    ("repro.query.ast", "EmbeddedRef", "__str__", "query.render", "call"),
    ("repro.server.service", None, "fingerprint", "cache.fingerprint", "call"),
    ("repro.server.service", None, "query_footprint", "cache.put", "call"),
    ("repro.cache.store", "QueryCache", "get", "cache.get", "call"),
    ("repro.cache.store", "QueryCache", "put", "cache.put", "call"),
    ("repro.cache.store", "QueryCache", "find_superset", "cache.superset", "call"),
    ("repro.cache.store", "QueryCache", "invalidate", "cache.invalidate", "call"),
    ("repro.cache.store", "QueryCache", "patch", "cache.invalidate", "call"),
    ("repro.cache.store", "QueryCache", "drop", "cache.invalidate", "call"),
    ("repro.engine.optimizer", "PlannedEngine", "plan", "engine.plan", "call"),
    ("repro.engine.optimizer", "PlannedEngine", "run_planned", "engine.run", "call"),
    ("repro.engine.engine", None, "evaluate_atomic", "engine.atomic", "call"),
    ("repro.engine.optimizer", None, "evaluate_atomic", "engine.atomic", "call"),
    ("repro.engine.engine", None, "boolean_merge", "engine.boolean", "call"),
    ("repro.engine.optimizer", None, "boolean_merge", "engine.boolean", "call"),
    ("repro.engine.engine", None, "hierarchical_select", "engine.hier", "call"),
    ("repro.engine.engine", None, "simple_agg_select", "engine.agg", "call"),
    ("repro.engine.engine", None, "embedded_ref_select", "engine.eref", "call"),
    ("repro.storage.store", "DirectoryStore", "scan_subtree", "storage.scan", "generator"),
    ("repro.storage.store", "DirectoryStore", "fetch_positions", "storage.fetch", "sized"),
    ("repro.storage.pager", "Pager", "read", "storage.pager_read", "call"),
    ("repro.storage.maintenance", "UpdatableDirectory", "add", "storage.write", "call"),
    ("repro.storage.maintenance", "UpdatableDirectory", "modify", "storage.write", "call"),
    ("repro.storage.maintenance", "UpdatableDirectory", "delete", "storage.write", "call"),
    ("repro.storage.maintenance", "UpdatableDirectory", "compact", "storage.compact", "call"),
    ("repro.storage.maintenance", "UpdatableDirectory", "acquire_view", "txn.snapshot", "call"),
    ("repro.txn.mvcc", "Snapshot", "folded", "txn.snapshot", "call"),
    ("repro.txn.wal", "WriteAheadLog", "append", "txn.wal_append", "call"),
    ("repro.txn.wal", "WriteAheadLog", "sync", "txn.wal_sync", "call"),
    ("repro.security", "AccessControlList", "readable", "security.acl", "call"),
    ("repro.obs.digest", "QueryDigestTable", "observe", "obs.digest", "call"),
    ("repro.obs.stats", "StatCounters", "snapshot", "obs.stats", "call"),
    ("repro.obs.stats", "StatCounters", "since", "obs.stats", "call"),
    ("repro.obs.metrics", "Histogram", "observe", "obs.metrics", "call"),
    ("repro.obs.metrics", "Counter", "inc", "obs.metrics", "call"),
    ("repro.obs.metrics", "Gauge", "set", "obs.metrics", "call"),
    ("repro.obs.metrics", "Gauge", "inc", "obs.metrics", "call"),
    ("repro.obs.slowlog", "SlowQueryLog", "record", "obs.slowlog", "call"),
    ("repro.obs.heatmap", "SubtreeHeatMap", "record_read", "obs.heatmap", "call"),
    ("repro.obs.heatmap", "SubtreeHeatMap", "record_write", "obs.heatmap", "call"),
    ("repro.obs.heatmap", "SubtreeHeatMap", "record_shipped", "obs.heatmap", "call"),
)


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = ("id", "op", "children")

    def __init__(self, span_id: int, op: int):
        self.id = span_id
        self.op = op
        self.children = 0.0  # seconds covered by finished child spans


class Tracer:
    """Span recorder with a per-thread span stack.  Installed shims are
    pass-through until :attr:`enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.origin = time.perf_counter()
        #: Finished spans as rows in :data:`SPAN_COLUMNS` order (seconds
        #: until :meth:`dump` scales them).  ``list.append`` and
        #: ``itertools.count`` are atomic under the GIL, so client threads
        #: share them without a lock.
        self.spans: List[tuple] = []
        #: Entries yielded / returned per sized or generator span name.
        self.sized: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, stack: List[_Frame]) -> Tuple[_Frame, Optional[_Frame]]:
        parent = stack[-1] if stack else None
        frame = _Frame(next(self._ids), parent.op if parent else next(self._ops))
        return frame, parent

    def _close(self, name: str, frame: _Frame, parent: Optional[_Frame],
               start: float, duration: float) -> None:
        self.spans.append((
            frame.id, parent.id if parent else 0, frame.op,
            threading.get_ident(), name, start - self.origin, duration,
            duration - frame.children,
        ))

    def wrap(self, name: str, function: Callable,
             size: Optional[Callable] = None) -> Callable:
        tracer, clock = self, time.perf_counter

        def shim(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            entered = clock()
            stack = tracer._stack()
            frame, parent = tracer._open(stack)
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
                if size is not None:
                    tracer.sized[name] = tracer.sized.get(name, 0) + size(result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                tracer._close(name, frame, parent, start, duration)
                if parent is not None:
                    parent.children += clock() - entered

        shim.__wrapped__ = function
        return shim

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        tracer = self

        def shim(*args, **kwargs):
            generator = function(*args, **kwargs)
            if not tracer.enabled:
                return generator
            return tracer._drive(name, generator)

        shim.__wrapped__ = function
        return shim

    def _drive(self, name: str, generator: Iterator) -> Iterator:
        """Re-yield ``generator``, timing each resumption: the consumer's
        work between two items is the consumer's, not the scan's."""
        clock, stack = time.perf_counter, self._stack()
        frame = first_parent = None
        first_start = busy = 0.0
        yielded = 0
        try:
            while True:
                parent = stack[-1] if stack else None
                if frame is None:
                    frame, first_parent = self._open(stack)
                    first_start = clock()
                stack.append(frame)
                start = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    stack.pop()
                    busy += duration
                    if parent is not None:
                        parent.children += duration
                yielded += 1
                yield item
        finally:
            generator.close()
            if frame is not None:
                self.sized[name] = self.sized.get(name, 0) + yielded
                self._close(name, frame, first_parent, first_start, busy)

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind every :data:`TARGETS` callable to its shim; restore the
        originals on exit."""
        saved = []
        try:
            for module_name, class_name, attribute, span, flavour in TARGETS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attribute)
                if flavour == "generator":
                    shim = self.wrap_generator(span, original)
                elif flavour == "sized":
                    shim = self.wrap(span, original, size=_result_size)
                else:
                    shim = self.wrap(span, original)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, shim)
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- read-out -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = {}
        for row in self.spans:
            totals[row[4]] = totals.get(row[4], 0.0) + row[7]
        return totals

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self.spans:
            counts[row[4]] = counts.get(row[4], 0) + 1
        return counts

    def duration_under(self, name: str, ancestor: str) -> Tuple[float, float]:
        """(total duration of ``name`` spans, the part of it spent below an
        ``ancestor`` span)."""
        wanted = [row for row in self.spans if row[4] == name]
        index = {row[0]: row for row in self.spans} if wanted else {}
        total = nested = 0.0
        for row in wanted:
            total += row[6]
            parent = index.get(row[1])
            while parent is not None and parent[4] != ancestor:
                parent = index.get(parent[1])
            if parent is not None:
                nested += row[6]
        return total, nested

    def dump(self, path: str, header: Dict[str, object]) -> None:
        """Write the header and one row per span (times in microseconds)."""
        head = json.dumps(dict(header, columns=list(SPAN_COLUMNS)))
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(head[:-1] + ', "spans": [\n')
            for index, row in enumerate(self.spans):
                stream.write(",\n" if index else "")
                stream.write(json.dumps(
                    list(row[:5]) + [round(seconds * 1e6, 1) for seconds in row[5:]]
                ))
            stream.write("\n]}\n")


def _result_size(result) -> int:
    return len(getattr(result, "entries", result))
