"""Observability: span tracing, unified metrics, logs and the workload plane.

The paper proves per-operator I/O bounds; this package makes them
*measurable* in a running system, end to end:

- :mod:`repro.obs.stats` -- the snapshot/delta protocol every counter
  block (:class:`~repro.storage.pager.IOStats`,
  :class:`~repro.cache.stats.CacheStats`) implements;
- :mod:`repro.obs.trace` -- hierarchical spans with wall time and exact
  per-operator page-I/O attribution (no-op and allocation-free when
  disabled, which is the default);
- :mod:`repro.obs.metrics` -- a process-wide registry of counters,
  gauges and fixed-bucket histograms with Prometheus text and JSON
  exposition;
- :mod:`repro.obs.event` -- the one record per finished search that
  every sink below reads;
- :mod:`repro.obs.slowlog` -- the one bounded ring of slow, degraded
  and budget-breached searches (``/slowlog`` and ``/traces``);
- :mod:`repro.obs.log` -- the one process event log: JSON lines with
  trace/span correlation, off until :func:`repro.obs.log.configure`;
- :mod:`repro.obs.budget` -- per-query resource budgets enforced at
  operator boundaries;
- :mod:`repro.obs.httpd` -- the stdlib HTTP admin endpoint
  (``/metrics``, ``/healthz``, ``/slowlog``, ``/traces``, plus the
  workload plane's ``/digest``, ``/heatmap``);
- :mod:`repro.obs.digest` -- the per-query-shape digest table
  (pg_stat_statements style, keyed by the cache's normal-form
  fingerprint);
- :mod:`repro.obs.heatmap` -- EWMA-decayed load accounting over
  reversed-DN subtree prefixes (the shard-placement signal).

Alerting is left to whatever scrapes ``/metrics``, which exposes every
series an alert rule would read.
"""

from .budget import BudgetExceeded, BudgetTracker, QueryBudget
from .digest import QueryDigest, QueryDigestTable
from .event import SearchEvent
from .heatmap import SubtreeHeatMap
from .httpd import AdminServer
from .log import LOG, EventLogger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .slowlog import SlowQueryLog
from .stats import StatCounters
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "AdminServer",
    "BudgetExceeded",
    "BudgetTracker",
    "Counter",
    "EventLogger",
    "Gauge",
    "Histogram",
    "LOG",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QueryBudget",
    "QueryDigest",
    "QueryDigestTable",
    "SearchEvent",
    "SlowQueryLog",
    "Span",
    "StatCounters",
    "SubtreeHeatMap",
    "Tracer",
    "get_registry",
]
