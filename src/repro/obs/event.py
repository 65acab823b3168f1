"""The search event: one record per finished search, read by every sink.

:class:`~repro.server.service.DirectoryService` creates a
:class:`SearchEvent` when a search starts, fills it in place as the
search runs and, when the search ends -- success, size-limited, protocol
error or budget breach alike -- hands the same object to every enabled
sink: the slow-query ring, the metric instruments, the workload digest,
the structured event log and the alert engine.  There is no per-sink
copy, so the sinks agree by construction: one page count, one latency,
one query text, one classification.

The slow-query ring (:mod:`repro.obs.slowlog`, which ``/slowlog`` and
``/traces`` both read) retains the event itself, which is why it holds
**no result entries** -- a query AST, a span tree and scalars only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SearchEvent"]


class SearchEvent:
    """One search, as every sink sees it."""

    __slots__ = (
        "query", "_text", "key", "via", "pages", "saved_io", "rows", "code",
        "elapsed", "qerror", "rewrites", "retries", "warnings", "trace_id",
        "root", "budget_error", "slow",
    )

    def __init__(
        self,
        query=None,
        query_text: Optional[str] = None,
        key: Optional[str] = None,
        via: Optional[str] = None,
        pages: int = 0,
        saved_io: int = 0,
        rows: int = 0,
        code: Optional[str] = None,
        elapsed: float = 0.0,
        qerror: Optional[float] = None,
        rewrites: Tuple[str, ...] = (),
        retries: int = 0,
        warnings: Tuple[str, ...] = (),
        trace_id: Optional[str] = None,
        root=None,
        budget_error=None,
    ):
        #: The parsed query as written (None until parsed; an event built
        #: from a bare ``query_text`` never has one).
        self.query = query
        self._text = query_text
        #: ACD-normal-form fingerprint, when one was computed on the way
        #: (the digest row key; the cache probe's key is reused).
        self.key = key
        #: How the result was served: ``engine`` / ``cache`` /
        #: ``superset`` / ``federation``; None when nothing was evaluated
        #: (protocol error, budget breach).
        self.via = via
        #: Logical page I/O of the evaluation that ran -- the paper's cost
        #: (Section 8.2), measured once, by the engine or the federation
        #: coordinator; 0 when a cache served the search.
        self.pages = pages
        #: Logical page I/O a cache hit avoided (the resident's recorded
        #: evaluation cost).
        self.saved_io = saved_io
        #: Entries visible to the bound subject, before any size limit.
        self.rows = rows
        self.code = code
        self.elapsed = elapsed
        #: Planner Q-error of the run (None when the search bypassed the
        #: planner: cache hits, federated fan-outs, planner="none").  A
        #: slow query with a high Q-error is a *mis-planned* query --
        #: re-run it under ``repro plan`` / EXPLAIN ``--analyze`` for the
        #: routed rewrite hint.
        self.qerror = qerror
        #: Rewrite rules the executed plan applied.
        self.rewrites = rewrites
        #: The federated degradation story: remote attempts beyond the
        #: first, and stale/replica/partial notes -- zero/empty for
        #: ordinary local searches.
        self.retries = retries
        self.warnings = warnings
        #: Joins the event to its span tree and log lines (None unless the
        #: service runs under a live tracer); ``root`` is that tree.
        self.trace_id = trace_id
        self.root = root
        #: The structured :class:`~repro.obs.budget.BudgetExceeded` when
        #: the search was cancelled by its resource budget.
        self.budget_error = budget_error
        #: Set by the slow-query log when the search crossed its
        #: threshold (the log owns the threshold, so it decides).
        self.slow = False

    @property
    def query_text(self) -> str:
        """The query's canonical text, rendered on first use and at most
        once (a search no sink needs to spell out never pays for it)."""
        text = self._text
        if text is None:
            text = self._text = str(self.query)
        return text

    @property
    def cached(self) -> bool:
        """Served from the semantic cache (exact or superset hit)."""
        return self.via == "cache" or self.via == "superset"

    @property
    def budget(self) -> bool:
        """Cancelled by a resource budget."""
        return self.budget_error is not None

    @property
    def degraded(self) -> bool:
        """Answered with degradation warnings (a budget breach's
        cancellation note is not a degradation)."""
        return bool(self.warnings) and self.budget_error is None

    @property
    def reasons(self) -> List[str]:
        """Why the search is interesting: any of ``slow`` / ``degraded``
        / ``budget`` (empty for a clean, fast search)."""
        reasons = []
        if self.slow:
            reasons.append("slow")
        if self.degraded:
            reasons.append("degraded")
        if self.budget:
            reasons.append("budget")
        return reasons

    def as_dict(self) -> Dict[str, Any]:
        """The record ``/slowlog`` serves.  ``retries``, ``warnings``,
        ``trace_id`` and ``qerror`` are omitted when empty, so consumers
        of ordinary local searches see a fixed five-key record."""
        payload = {
            "query": self.query_text,
            "elapsed_s": self.elapsed,
            "io_total": self.pages,
            "cached": self.cached,
            "result_size": self.rows,
        }
        if self.retries:
            payload["retries"] = self.retries
        if self.warnings:
            payload["warnings"] = list(self.warnings)
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.qerror is not None:
            payload["qerror"] = self.qerror
        return payload

    def __repr__(self) -> str:
        return "SearchEvent(%r, %.3fms, pages=%d)" % (
            self.query_text,
            self.elapsed * 1e3,
            self.pages,
        )
