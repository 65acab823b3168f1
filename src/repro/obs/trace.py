"""Hierarchical span tracing with exact I/O attribution.

The paper proves *I/O bounds per operator*; this tracer makes them
observable per operator at runtime.  A :class:`Tracer` brackets one live
counter block, :attr:`Tracer.io` -- the pager's
:class:`~repro.storage.pager.IOStats`, bound by the service, engine or
federation that owns the pager.  Each :class:`Span` is its own context
manager: it records wall time plus the delta of the block bound when it
opened, so wrapping each engine operator in a span yields the page
transfers that operator caused -- inclusive of its children, with
:meth:`Span.exclusive` subtracting back out the children that bracketed
the same block.  The exclusive costs of a span tree always sum to the
root's inclusive cost, which is how EXPLAIN ``--analyze`` reconciles
per-operator I/O against the pager's global counters.

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
each nest their own spans).  A worker adopts the scattering thread's
:attr:`Tracer.current` span via :meth:`Tracer.adopt`, and a span it
opens on an empty stack nests under that span.  Each span attaches itself
to its parent when it closes, under the tracer's lock: while the parent
is open it joins the parent's children -- so a scatter-gather keeps
producing one connected span tree, concurrent siblings in completion
order -- and once the parent has closed it becomes a root that carries
the parent's ids.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: How many finished root spans a live tracer keeps (the newest).
KEEP_ROOTS = 256


class Span:
    """One traced phase and the context manager that brackets it: name,
    attributes, ids, wall time, the I/O delta over the block it
    bracketed, children."""

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id", "elapsed",
                 "io", "children", "closed", "_tracer", "_parent", "_block",
                 "_before", "_started")

    def __init__(self, tracer: "Tracer", parent: Optional["Span"], name: str,
                 attrs: Dict[str, Any], trace_id: str, parent_id: Optional[str]):
        self.name = name
        self.attrs = attrs
        self.trace_id = trace_id
        self.span_id = "s%d" % next(tracer._ids)
        self.parent_id = parent_id
        self.elapsed = 0.0
        #: The bracketed block's counter delta over the span (inclusive
        #: of children); None when no block was bound at open.
        self.io = None
        self.children: List["Span"] = []
        self.closed = False
        self._tracer = tracer
        #: The in-process parent (None for a root or a remote caller's).
        self._parent = parent
        self._block = None
        self._before = None
        self._started = 0.0

    def __enter__(self) -> "Span":
        block = self._tracer.io
        if block is not None:
            self._block = block
            self._before = block.snapshot()
        self._tracer._tls.stack.append(self)
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.elapsed = perf_counter() - self._started
        if self._block is not None:
            self.io = self._block.since(self._before)
            self._before = None
        if exc_type is not None:
            self.attrs["error"] = "%s: %s" % (exc_type.__name__, exc)
        tracer = self._tracer
        tracer._tls.stack.pop()
        parent = self._parent
        self._parent = None
        with tracer._lock:
            self.closed = True
            if parent is not None and not parent.closed:
                parent.children.append(self)
            else:
                tracer.root_spans.append(self)
                del tracer.root_spans[:-KEEP_ROOTS]
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (e.g. ``rows=`` once known)."""
        self.attrs.update(attrs)
        return self

    def exclusive(self, field: str) -> int:
        """This span's own share of an I/O counter: its delta minus the
        deltas of its children that bracketed the same block."""
        own = getattr(self.io, field, 0)
        for child in self.children:
            if child._block is self._block:
                own -= getattr(child.io, field, 0)
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
        """JSON-ready form (the I/O delta flattened under ``stats.io``)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "elapsed_s": self.elapsed,
            "attrs": dict(self.attrs),
            "stats": {"io": self.io.as_dict()} if self.io is not None else {},
            "children": [child.as_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        parts = ["%s%s" % ("  " * indent, self.name)]
        if self.attrs:
            parts.append(
                " ".join("%s=%s" % (k, v) for k, v in sorted(self.attrs.items()))
            )
        parts.append("%.3fms" % (self.elapsed * 1e3))
        if self.io is not None:
            parts.append("io=%d" % self.io.total)
        line = "  ".join(parts)
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])

    def __repr__(self) -> str:
        return "Span(%s, %d children, %.3fms)" % (
            self.name, len(self.children), self.elapsed * 1e3)


class _ThreadState(threading.local):
    """One thread's span stack and adopted parent."""

    def __init__(self):
        self.stack: List[Span] = []
        self.adopted: Optional[Span] = None


class Tracer:
    """A live tracer: the block to bracket, per-thread span stacks,
    finished roots."""

    enabled = True

    def __init__(self):
        #: The live counter block every span brackets (must offer
        #: ``snapshot()``/``since()``): the owning service or engine binds
        #: its pager's :class:`~repro.storage.pager.IOStats` when None, and
        #: a federation rebinds it to each query's coordinator.
        self.io = None
        #: The newest :data:`KEEP_ROOTS` completed top-level spans, oldest
        #: first.
        self.root_spans: List[Span] = []
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def adopt(self, parent: Optional[Span]):
        """Make ``parent`` (another thread's :attr:`current`) the calling
        thread's inherited parent: spans opened on this thread with an
        empty stack nest under it.  Worker pools call this around each
        task.  Returns a token for :meth:`release`."""
        tls = self._tls
        previous = tls.adopted
        tls.adopted = parent
        return previous

    def release(self, token) -> None:
        """Restore the inherited parent replaced by :meth:`adopt`."""
        self._tls.adopted = token

    def span(self, name: str, context: Optional[Dict[str, str]] = None, **attrs: Any) -> Span:
        """A span to open with ``with``.  ``context`` (a :meth:`context`
        dict from a remote caller) grafts a span opened on an empty stack
        into the caller's trace."""
        tls = self._tls
        stack = tls.stack
        if stack:
            parent = stack[-1]
        else:
            parent = tls.adopted if context is None else None
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif context is not None:
            trace_id, parent_id = context["trace_id"], context["span_id"]
        else:
            trace_id, parent_id = "t%d" % next(self._trace_ids), None
        return Span(self, parent, name, attrs, trace_id, parent_id)

    @property
    def current(self) -> Optional[Span]:
        """The span a span opened now on this thread would nest under:
        the top of its stack, else the span it adopted."""
        tls = self._tls
        return tls.stack[-1] if tls.stack else tls.adopted

    def context(self) -> Optional[Dict[str, str]]:
        """The current span's identity, as a dict that can cross a
        process/network boundary (None outside any span)."""
        span = self.current
        if span is None:
            return None
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    def last_root(self) -> Optional[Span]:
        return self.root_spans[-1] if self.root_spans else None

    def __repr__(self) -> str:
        return "Tracer(%d roots)" % len(self.root_spans)


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

    def adopt(self, parent: Optional[Span]) -> None:
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

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled tracer (the default everywhere).
NULL_TRACER = NullTracer()
