"""A process-wide metrics registry with Prometheus and JSON exposition.

Three instrument kinds, in the Prometheus data model:

- :class:`Counter` -- monotonically increasing totals
  (``repro_searches_total``);
- :class:`Gauge` -- point-in-time values (``repro_buffer_hit_rate``);
- :class:`Histogram` -- fixed-bucket distributions
  (``repro_search_seconds``), exposed as the standard cumulative
  ``_bucket``/``_sum``/``_count`` series.

Instruments support a fixed set of label names declared at creation;
observations pass label *values* as keyword arguments and each distinct
label combination gets its own series.  Registration is idempotent:
asking the registry for an instrument that already exists returns it
(mismatched kind or labels raise), so any layer can declare the metrics
it needs without coordination.

:func:`get_registry` returns the one process-wide registry, the same
object for the life of the process.

Thread safety: registration (get-or-create) and every observation
(``inc``/``set``/``observe``) are guarded by locks -- one per registry
for the instrument table, one per instrument for its series -- so
concurrent workers (the federation's scatter-gather pool) never lose
increments or race two creations of the same instrument.  Exposition
reads under the same locks and therefore sees consistent totals.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

#: Default latency buckets, in seconds (tuned for an in-process engine).
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labelnames: Sequence[str], labels: Dict[str, Any]) -> LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            "expected labels %s, got %s" % (sorted(labelnames), sorted(labels))
        )
    return tuple((name, str(labels[name])) for name in labelnames)


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join('%s="%s"' % (name, _escape(value)) for name, value in pairs)
    return "{%s}" % body


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return "%d" % int(value)
    return repr(value)


class _Instrument:
    """Common shape: a name, help text and declared label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        #: Guards this instrument's series maps (updates and exposition).
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, Any]) -> LabelKey:
        return _label_key(self.labelnames, labels)

    def expose(self) -> List[str]:
        raise NotImplementedError

    def as_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _header(self) -> List[str]:
        return [
            "# HELP %s %s" % (self.name, self.help_text),
            "# TYPE %s %s" % (self.name, self.kind),
        ]


class Counter(_Instrument):
    """A monotonically increasing total (per label combination)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up (amount=%r)" % amount)
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def expose(self) -> List[str]:
        lines = self._header()
        with self._lock:
            values = dict(self._values)
        for key in sorted(values):
            lines.append(
                "%s%s %s"
                % (self.name, _render_labels(key), _format_value(values[key]))
            )
        if not values and not self.labelnames:
            lines.append("%s 0" % self.name)
        return lines

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help_text,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(values.items())
            ],
        }


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def expose(self) -> List[str]:
        lines = self._header()
        with self._lock:
            values = dict(self._values)
        for key in sorted(values):
            lines.append(
                "%s%s %s"
                % (self.name, _render_labels(key), _format_value(values[key]))
            )
        if not values and not self.labelnames:
            lines.append("%s 0" % self.name)
        return lines

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help_text,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(values.items())
            ],
        }


class Histogram(_Instrument):
    """A fixed-bucket distribution (cumulative buckets, Prometheus
    style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # per label key: [per-bound counts..., +Inf count], sum, count
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * (len(self.bounds) + 1))
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            return self._totals.get(key, 0)

    #: The quantiles :meth:`quantiles` and :meth:`as_dict` report.
    REPORTED_QUANTILES = (0.5, 0.95, 0.99)

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """The estimated ``q``-quantile, linearly interpolated inside the
        fixed buckets (the ``histogram_quantile`` estimator).  Values in
        the overflow (+Inf) bucket clamp to the top bound; returns None
        with no observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            total = self._totals.get(key, 0)
            if counts is None or total == 0:
                return None
            counts = list(counts)
        rank = q * total
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            in_bucket = counts[i]
            if cumulative + in_bucket >= rank and in_bucket > 0:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                fraction = (rank - cumulative) / in_bucket
                return lower + (bound - lower) * fraction
            cumulative += in_bucket
        return float(self.bounds[-1])

    def quantiles(self, **labels: Any) -> Optional[Dict[str, float]]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` or None when empty."""
        estimates = {}
        for q in self.REPORTED_QUANTILES:
            value = self.quantile(q, **labels)
            if value is None:
                return None
            estimates["p%g" % (q * 100)] = value
        return estimates

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def expose(self) -> List[str]:
        lines = self._header()
        with self._lock:
            series = {key: list(self._counts[key]) for key in self._counts}
            sums = dict(self._sums)
            totals = dict(self._totals)
        for key in sorted(series):
            counts = series[key]
            cumulative = 0
            for bound, count in zip(self.bounds, counts):
                cumulative += count
                lines.append(
                    "%s_bucket%s %d"
                    % (
                        self.name,
                        _render_labels(key, (("le", _format_value(bound)),)),
                        cumulative,
                    )
                )
            cumulative += counts[-1]
            lines.append(
                "%s_bucket%s %d"
                % (self.name, _render_labels(key, (("le", "+Inf"),)), cumulative)
            )
            lines.append(
                "%s_sum%s %s"
                % (self.name, _render_labels(key), _format_value(sums[key]))
            )
            lines.append(
                "%s_count%s %d" % (self.name, _render_labels(key), totals[key])
            )
        return lines

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = {key: list(self._counts[key]) for key in self._counts}
            sums = dict(self._sums)
            totals = dict(self._totals)
        return {
            "kind": self.kind,
            "help": self.help_text,
            "buckets": list(self.bounds),
            "values": [
                {
                    "labels": dict(key),
                    "counts": series[key],
                    "sum": sums[key],
                    "count": totals[key],
                    "quantiles": self.quantiles(**dict(key)),
                }
                for key in sorted(series)
            ],
        }


class MetricsRegistry:
    """A named collection of instruments with unified exposition.

    Get-or-create (:meth:`counter`/:meth:`gauge`/:meth:`histogram`) is
    atomic: two threads asking for the same name always receive the same
    instrument, never two instruments racing for the slot.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.RLock()

    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument) or (
                    existing.labelnames != instrument.labelnames
                ):
                    raise ValueError(
                        "metric %r already registered as %s%s"
                        % (instrument.name, existing.kind, list(existing.labelnames))
                    )
                return existing
            self._instruments[instrument.name] = instrument
            return instrument

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help_text, buckets, labelnames)
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def to_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        with self._lock:
            instruments = dict(self._instruments)
        lines: List[str] = []
        for name in sorted(instruments):
            lines.extend(instruments[name].expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].as_dict() for name in sorted(instruments)}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        return "MetricsRegistry(%d instruments)" % len(self._instruments)


#: The process-wide registry.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (every layer's fallback)."""
    return _REGISTRY
