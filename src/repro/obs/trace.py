"""Hierarchical span tracing with exact I/O attribution.

The paper proves *I/O bounds per operator*; this tracer makes them
observable per operator at runtime.  A :class:`Tracer` maintains a stack of
open :class:`Span`\\ s; each span records wall time plus the delta of every
registered counter block (see :class:`~repro.obs.stats.StatCounters`) over
its lifetime, so wrapping each engine operator in a span yields the actual
page transfers that operator caused -- inclusive of its children, with
:meth:`Span.exclusive` subtracting them back out.  The exclusive costs of a
span tree always sum to the root's inclusive cost, which is how EXPLAIN
``--analyze`` reconciles per-operator I/O against the pager's global
:class:`~repro.storage.pager.IOStats`.

Tracing is **off by default and free when off**: :data:`NULL_TRACER` is a
process-wide singleton whose :meth:`~NullTracer.span` returns the tracer
itself (one attribute lookup and a no-op context manager -- no ``Span`` is
ever allocated), so hot paths can call it unconditionally.

Distribution: a span's identity is ``(trace_id, span_id)``.
:meth:`Tracer.context` captures the current identity as a plain dict that
can ride along a remote call; the remote side passes it to
:meth:`Tracer.span` as ``context=`` and its spans join the caller's trace
(same ``trace_id``, parented under the caller's span id).

Concurrency: the span stack is **per thread** (a worker pool's threads
each nest their own spans), and a parallel worker inherits the
scattering span's identity via :meth:`Tracer.adopt`.  When a span closes
on a thread whose stack is empty, it is grafted onto its parent by id if
the parent is still open on another thread -- so a scatter-gather keeps
producing one connected span tree; attachment order among concurrent
siblings follows completion order.  Root and children lists are guarded
by one tracer lock.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One traced phase: name, attributes, timing, counter deltas,
    children."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "elapsed",
        "stats",
        "children",
        "_started",
        "_before",
    )

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
    ):
        self.name = name
        self.attrs = attrs
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.elapsed = 0.0
        #: Per-probe counter deltas over the span (inclusive of children).
        self.stats: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self._started = 0.0
        self._before: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (e.g. ``rows=`` once known)."""
        self.attrs.update(attrs)
        return self

    def exclusive(self, probe: str, field: str) -> int:
        """This span's own share of a counter: inclusive minus children."""
        own = getattr(self.stats.get(probe), field, 0)
        for child in self.children:
            own -= getattr(child.stats.get(probe), field, 0)
        return own

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with ``name``, depth-first."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self):
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (counter deltas flattened per probe)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "elapsed_s": self.elapsed,
            "attrs": dict(self.attrs),
            "stats": {
                probe: delta.as_dict() for probe, delta in self.stats.items()
            },
            "children": [child.as_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        parts = ["%s%s" % ("  " * indent, self.name)]
        if self.attrs:
            parts.append(
                " ".join("%s=%s" % (k, v) for k, v in sorted(self.attrs.items()))
            )
        parts.append("%.3fms" % (self.elapsed * 1e3))
        io = self.stats.get("io")
        if io is not None:
            parts.append("io=%d" % getattr(io, "total", 0))
        line = "  ".join(parts)
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])

    def __repr__(self) -> str:
        return "Span(%s, %d children, %.3fms)" % (
            self.name,
            len(self.children),
            self.elapsed * 1e3,
        )


class _ActiveSpan:
    """Context manager binding one span to a tracer's stack."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        span = self.span
        tracer = self.tracer
        span._before = {
            name: live.snapshot() for name, live in tracer.probes.items()
        }
        span._started = time.perf_counter()
        tracer._thread_stack().append(span)
        with tracer._lock:
            tracer._open[span.span_id] = span
        return span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        span = self.span
        tracer = self.tracer
        span.elapsed = time.perf_counter() - span._started
        # Diff only probes that existed when the span opened (a probe
        # registered mid-span has no baseline to diff against).
        for name, before in span._before.items():
            live = tracer.probes.get(name)
            if live is not None:
                span.stats[name] = live.since(before)
        span._before = {}
        if exc_type is not None:
            span.attrs["error"] = "%s: %s" % (exc_type.__name__, exc)
        stack = tracer._thread_stack()
        stack.pop()
        if stack:
            # Same-thread nesting: the parent owns its children list here.
            stack[-1].children.append(span)
            with tracer._lock:
                tracer._open.pop(span.span_id, None)
            return False
        with tracer._lock:
            tracer._open.pop(span.span_id, None)
            parent = (
                tracer._open.get(span.parent_id)
                if span.parent_id is not None
                else None
            )
            if parent is not None:
                # A worker-thread span closing under a scatter span that is
                # still open elsewhere: graft by id.
                parent.children.append(span)
            else:
                tracer.root_spans.append(span)
                if tracer.keep_roots is not None:
                    del tracer.root_spans[: -tracer.keep_roots]
        return False


class Tracer:
    """A live tracer: probes to bracket, a span stack, finished roots."""

    enabled = True

    def __init__(self, probes: Optional[Dict[str, Any]] = None, keep_roots: Optional[int] = 256):
        #: name -> live :class:`StatCounters`-like object (must offer
        #: ``snapshot()``/``since()``); bracketed around every span.
        self.probes: Dict[str, Any] = dict(probes or {})
        #: Completed top-level spans, oldest first (bounded by keep_roots).
        self.root_spans: List[Span] = []
        self.keep_roots = keep_roots
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: span_id -> Span for every span currently open on any thread.
        self._open: Dict[str, Span] = {}
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def _thread_stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def add_probe(self, name: str, live: Any) -> None:
        """Register a counter block to bracket around future spans."""
        self.probes[name] = live

    def adopt(self, context: Optional[Dict[str, str]]):
        """Make ``context`` the calling thread's inherited parent: spans
        opened on this thread with an empty stack nest under it.  Worker
        pools call this around each task with the scattering span's
        :meth:`context`.  Returns a token for :meth:`release`."""
        previous = getattr(self._tls, "inherited", None)
        self._tls.inherited = context
        return previous

    def release(self, token) -> None:
        """Restore the inherited context replaced by :meth:`adopt`."""
        self._tls.inherited = token

    def span(self, name: str, context: Optional[Dict[str, str]] = None, **attrs: Any):
        """Open a span.  ``context`` (a :meth:`context` dict from a remote
        caller) grafts this span into the caller's trace."""
        stack = self._thread_stack()
        if not stack and context is None:
            context = getattr(self._tls, "inherited", None)
        if stack:
            parent = stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif context is not None:
            trace_id = context["trace_id"]
            parent_id = context["span_id"]
        else:
            trace_id = "t%d" % next(self._trace_ids)
            parent_id = None
        span = Span(name, attrs, trace_id, "s%d" % next(self._ids), parent_id)
        return _ActiveSpan(self, span)

    @property
    def current(self) -> Optional[Span]:
        stack = self._thread_stack()
        return stack[-1] if stack else None

    def context(self) -> Optional[Dict[str, str]]:
        """The current span's identity, as a dict that can cross a
        process/network boundary (the thread's adopted context when no
        span is open on it; None outside any span)."""
        span = self.current
        if span is None:
            return getattr(self._tls, "inherited", None)
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    def last_root(self) -> Optional[Span]:
        return self.root_spans[-1] if self.root_spans else None

    def clear(self) -> None:
        self.root_spans = []

    def __repr__(self) -> str:
        return "Tracer(%d roots, %d open, probes=%s)" % (
            len(self.root_spans),
            len(self._open),
            sorted(self.probes),
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op and no span is ever
    allocated.  ``span()`` returns the tracer itself, which doubles as the
    context manager *and* the yielded span -- one shared object, zero
    garbage on the hot path."""

    enabled = False
    root_spans = ()  # type: tuple

    def span(self, name: str, context: Optional[Dict[str, str]] = None, **attrs: Any):
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullTracer":
        return self

    def add_probe(self, name: str, live: Any) -> None:
        pass

    def adopt(self, context: Optional[Dict[str, str]]) -> None:
        return None

    def release(self, token) -> None:
        pass

    @property
    def current(self) -> None:
        return None

    def context(self) -> None:
        return None

    def last_root(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled tracer (the default everywhere).
NULL_TRACER = NullTracer()
