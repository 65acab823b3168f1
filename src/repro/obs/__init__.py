"""Observability: span tracing, unified metrics, benchmark telemetry.

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
- :mod:`repro.obs.telemetry` -- the ``BENCH_<experiment>.json`` emitter
  behind the benchmark suite, plus the bench-regression gate
  (:func:`~repro.obs.telemetry.compare_bench`);
- :mod:`repro.obs.log` -- JSON-lines structured event logging with
  trace/span correlation (no-op by default, like the tracer);
- :mod:`repro.obs.budget` -- per-query resource budgets enforced at
  operator boundaries;
- :mod:`repro.obs.httpd` -- the stdlib HTTP admin endpoint
  (``/metrics``, ``/healthz``, ``/slowlog``, ``/traces``, plus the
  workload plane's ``/digest``, ``/heatmap``, ``/alerts``);
- :mod:`repro.obs.digest` -- the per-query-shape digest table
  (pg_stat_statements style, keyed by the cache's normal-form
  fingerprint);
- :mod:`repro.obs.heatmap` -- EWMA-decayed load accounting over
  reversed-DN subtree prefixes (the shard-placement signal);
- :mod:`repro.obs.alerts` -- level/rate/ratio alert rules, written as
  text, read straight from the registry with firing/resolved
  transitions on an injectable clock.
"""

from .alerts import AlertEngine, AlertRule, default_rules, parse_rule
from .budget import BudgetExceeded, BudgetTracker, QueryBudget
from .digest import QueryDigest, QueryDigestTable
from .event import SearchEvent
from .heatmap import SubtreeHeatMap
from .httpd import AdminServer
from .log import CapturingLogger, EventLogger, NULL_LOGGER, NullLogger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .slowlog import SlowQueryLog
from .stats import StatCounters
from .telemetry import (
    BenchEmitter,
    compare_bench,
    diff_bench_dirs,
    load_bench,
    validate_bench,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "AdminServer",
    "AlertEngine",
    "AlertRule",
    "BenchEmitter",
    "BudgetExceeded",
    "BudgetTracker",
    "CapturingLogger",
    "Counter",
    "EventLogger",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_TRACER",
    "NullLogger",
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
    "compare_bench",
    "default_rules",
    "diff_bench_dirs",
    "get_registry",
    "load_bench",
    "parse_rule",
    "set_registry",
    "validate_bench",
]
