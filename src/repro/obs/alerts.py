"""Declarative alert rules evaluated straight over the metrics registry.

A rule names one scalar the registry already holds and a breach
condition; the engine reads every rule each evaluation round and drives
a small state machine per rule::

    ok --(breached for `for_samples` consecutive rounds)--> firing
    firing --(one non-breached round)--> ok      (a "resolved" transition)

Every rule is text, built by :func:`parse_rule`, in one of three shapes:

- a level -- ``p95(repro_planner_qerror) > 4`` (the planner is
  mis-estimating) or ``max(repro_replication_lag_records) > 8`` (a
  replica fell behind): a histogram's ``sum``/``count``/``p50``/``p95``/
  ``p99``, or a counter or gauge value, aggregated (``sum``, or
  ``max(...)``/``min(...)``) across the series whose labels contain the
  rule's labels;
- a rate -- ``rate(repro_searches_total, 60) > 100``: the per-second
  change across a window.  A rate rule keeps its own bounded deque of
  ``(ts, value)`` points, one per round;
- a ratio -- ``repro_cache_lookups_total{outcome=hit} / total < 0.5
  min 20``: one label's share of a counter's total, suppressed until the
  total reaches ``min`` so an idle service never pages.

Each takes an optional ``for N`` suffix for the consecutive-breach
requirement.

:meth:`AlertEngine.observe` is the service's search-path sink: it
evaluates at most once per ``min_interval_s`` of the engine's clock, and
checks and claims the interval under one lock, so concurrent searches in
one interval evaluate once.  Transitions are structured-logged
(``alert.firing`` at warning, ``alert.resolved`` at info), counted in
``repro_alert_transitions_total{rule,to}``, and the number of currently
firing rules is the ``repro_alerts_firing`` gauge; the service folds
:meth:`AlertEngine.firing` into ``/healthz`` as ``status: degraded``.
Everything is deterministic under an injected clock -- no wall-clock
reads happen here except through it.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from .log import NULL_LOGGER
from .metrics import get_registry

__all__ = [
    "AlertEngine",
    "AlertRule",
    "default_rules",
    "parse_rule",
]

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_AGGS = {"sum": sum, "max": max, "min": min}

#: The ``(ts, value)`` points a rate rule keeps, newest last.
RATE_POINTS = 128

#: Records a replica may lag behind its primary before the stock
#: ``replication-lag`` rule fires and ``/healthz`` reports degraded.
REPLICATION_LAG_ALERT = 8


def _read(
    registry,
    metric: str,
    field: str = "value",
    labels: Optional[Dict[str, str]] = None,
    agg: str = "sum",
) -> Optional[float]:
    """``field`` of ``metric`` aggregated across every series whose labels
    contain ``labels``: a counter or gauge row's ``value``, a histogram
    row's ``sum``/``count`` or one of its quantiles.  None when no
    matching series carries the field (no data is never a breach)."""
    instrument = registry.get(metric)
    if instrument is None:
        return None
    matched = []
    for row in instrument.as_dict()["values"]:
        if labels and not labels.items() <= row["labels"].items():
            continue
        value = row.get(field)
        if value is None and row.get("quantiles"):
            value = row["quantiles"].get(field)
        if value is not None:
            matched.append(value)
    return _AGGS[agg](matched) if matched else None


def _render_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join(
        "%s=%s" % pair for pair in sorted(labels.items())
    )


class AlertRule:
    """One named breach condition over one registry metric.  Built only
    by :func:`parse_rule`; ``kind`` is ``"level"``, ``"rate"`` or
    ``"ratio"``."""

    #: Every rule pages at the one severity the payloads report.
    severity = "warning"

    def __init__(
        self,
        name: str,
        kind: str,
        metric: str,
        labels: Optional[Dict[str, str]],
        op: str,
        threshold: float,
        field: str = "value",
        agg: str = "sum",
        window_s: Optional[float] = None,
        min_denominator: float = 1.0,
        for_samples: int = 1,
    ):
        self.name = name
        self.kind = kind
        self.metric = metric
        self.labels = labels
        self.op = op
        self.threshold = float(threshold)
        self.field = field
        self.agg = agg
        self.window_s = window_s
        self.min_denominator = min_denominator
        self.for_samples = for_samples
        #: A rate rule's own ``(ts, value)`` points (None otherwise).
        self.points = deque(maxlen=RATE_POINTS) if kind == "rate" else None

    def measure(self, registry, now: float) -> Optional[float]:
        """This round's measurement at time ``now``, or None when the
        registry cannot answer yet.  A rate rule first records its point,
        then needs two usable points inside the window ending at ``now``."""
        if self.kind == "ratio":
            total = _read(registry, self.metric)
            if total is None or total < self.min_denominator:
                return None
            return (_read(registry, self.metric, labels=self.labels) or 0.0) / total
        value = _read(registry, self.metric, self.field, self.labels, self.agg)
        if self.kind == "level":
            return value
        self.points.append((now, value))
        horizon = now - self.window_s
        window = [point for point in self.points if point[0] >= horizon]
        if len(window) < 2:
            return None
        (first_ts, first), (last_ts, last) = window[0], window[-1]
        if last_ts <= first_ts or first is None or last is None:
            return None
        return (last - first) / (last_ts - first_ts)

    def breached(self, value: Optional[float]) -> bool:
        return value is not None and _OPS[self.op](value, self.threshold)

    def condition(self) -> str:
        target = self.metric + _render_labels(self.labels)
        if self.kind == "rate":
            expr = "rate(%s, %g)" % (target, self.window_s)
        elif self.kind == "ratio":
            expr = "%s / total" % target
        elif self.field != "value":
            expr = "%s(%s)" % (self.field, target)
        elif self.agg != "sum":
            expr = "%s(%s)" % (self.agg, target)
        else:
            expr = target
        text = "%s %s %g" % (expr, self.op, self.threshold)
        if self.kind == "ratio":
            text += " min %g" % self.min_denominator
        return text

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "condition": self.condition(),
            "severity": self.severity,
            "for_samples": self.for_samples,
        }

    def __repr__(self) -> str:
        return "AlertRule(%s)" % self.condition()


# -- the text grammar ------------------------------------------------------

_METRIC = r"(?P<metric>[A-Za-z_:][A-Za-z0-9_:]*)(?:\{(?P<labels>[^}]*)\})?"
_RULE_RE = re.compile(
    r"^\s*(?:(?P<func>[a-z0-9_]+)\(\s*" + _METRIC + r"\s*"
    r"(?:,\s*(?P<window>[0-9.]+)\s*)?\)"
    r"|" + _METRIC.replace("metric", "bare_metric").replace("labels", "bare_labels")
    + r")"
    r"(?P<ratio>\s*/\s*total)?"
    r"\s*(?P<op>>=|<=|>|<)\s*(?P<threshold>-?[0-9.]+)"
    r"(?:\s+min\s+(?P<min>[0-9.]+))?"
    r"(?:\s+for\s+(?P<for>\d+))?\s*$"
)

_FUNC_FIELDS = ("p50", "p95", "p99", "sum", "count", "value")
_FUNC_AGGS = ("max", "min")


def _parse_labels(text: Optional[str]) -> Optional[Dict[str, str]]:
    if not text or not text.strip():
        return None
    labels = {}
    for pair in text.split(","):
        name, _, value = pair.partition("=")
        if not _:
            raise ValueError("malformed label %r (expected name=value)" % pair)
        labels[name.strip()] = value.strip().strip('"')
    return labels


def parse_rule(text: str, name: Optional[str] = None) -> AlertRule:
    """Build a rule from its text form.  Examples::

        p95(repro_planner_qerror) > 4
        max(repro_replication_lag_records) > 8
        rate(repro_searches_total, 60) > 100 for 2
        repro_cache_lookups_total{outcome=hit} / total < 0.5 min 20

    ``name`` defaults to the rule text."""
    match = _RULE_RE.match(text)
    if match is None:
        raise ValueError("cannot parse alert rule %r" % text)
    groups = match.groupdict()
    func = groups["func"]
    labels = _parse_labels(groups["labels"] or groups["bare_labels"])
    for_samples = int(groups["for"]) if groups["for"] else 1
    if for_samples < 1:
        raise ValueError("for_samples must be positive")
    kind, field, agg, window_s = "level", "value", "sum", None
    if groups["ratio"]:
        if func is not None:
            raise ValueError("ratio rules take no function: %r" % text)
        if labels is None:
            raise ValueError("ratio rules need numerator labels: %r" % text)
        kind = "ratio"
    elif groups["min"]:
        raise ValueError("'min' only applies to ratio rules: %r" % text)
    elif func == "rate":
        if not groups["window"]:
            raise ValueError("rate() needs a window: rate(metric, seconds)")
        kind, window_s = "rate", float(groups["window"])
        if window_s <= 0:
            raise ValueError("window_s must be positive")
    elif groups["window"]:
        raise ValueError("only rate() takes a window argument: %r" % text)
    elif func in _FUNC_FIELDS:
        field = func
    elif func in _FUNC_AGGS:
        agg = func
    elif func is not None:
        raise ValueError("unknown function %r in alert rule %r" % (func, text))
    return AlertRule(
        name if name is not None else text.strip(),
        kind,
        groups["metric"] or groups["bare_metric"],
        labels,
        groups["op"],
        float(groups["threshold"]),
        field=field,
        agg=agg,
        window_s=window_s,
        min_denominator=float(groups["min"]) if groups["min"] else 1.0,
        for_samples=for_samples,
    )


def default_rules() -> List[AlertRule]:
    """The stack's stock rules: planner estimation quality, replication
    lag, and the cache hit-rate floor."""
    return [
        parse_rule("p95(repro_planner_qerror) > 4", name="planner-qerror-p95"),
        parse_rule(
            "max(repro_replication_lag_records) > %d" % REPLICATION_LAG_ALERT,
            name="replication-lag",
        ),
        parse_rule(
            "repro_cache_lookups_total{outcome=hit} / total < 0.1 min 50",
            name="cache-hit-rate-floor",
        ),
    ]


class AlertEngine:
    """Evaluates rules over one registry and tracks firing state.

    :param registry: the :class:`~repro.obs.metrics.MetricsRegistry` the
        rules read.
    :param clock: the time source that stamps rounds and transitions.
    :param min_interval_s: :meth:`observe` evaluates at most once per
        this many seconds of ``clock``.
    :param metrics: where the engine's own transition counter and firing
        gauge live (process default when omitted).
    """

    #: Transitions retained for ``/alerts`` (newest last).
    KEEP_TRANSITIONS = 64

    def __init__(
        self,
        registry,
        rules: List[AlertRule],
        clock: Callable[[], float] = time.time,
        min_interval_s: float = 1.0,
        log=None,
        metrics=None,
    ):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names: %s" % names)
        self.registry = registry
        self.rules = list(rules)
        self.min_interval_s = min_interval_s
        self.log = log if log is not None else NULL_LOGGER
        self._clock = clock
        own = metrics if metrics is not None else get_registry()
        self._m_transitions = own.counter(
            "repro_alert_transitions_total",
            "Alert state transitions",
            labelnames=("rule", "to"),
        )
        self._m_firing = own.gauge(
            "repro_alerts_firing", "Alert rules currently firing"
        )
        self._lock = threading.Lock()
        self._states: Dict[str, Dict[str, Any]] = {
            rule.name: {"state": "ok", "streak": 0, "since": None, "value": None}
            for rule in self.rules
        }
        #: When the last round ran (None before the first).
        self._last: Optional[float] = None
        self.transitions: List[Dict[str, Any]] = []
        #: Evaluation rounds run.
        self.evaluations = 0

    def observe(self, event=None) -> None:
        """The search-path sink: run a round unless one ran less than
        ``min_interval_s`` ago.  The interval is checked and claimed under
        the lock the round runs in, so two searches in one interval never
        both evaluate."""
        with self._lock:
            now = self._clock()
            if self._last is not None and now - self._last < self.min_interval_s:
                return
            changed = self._round(now)
        self._announce(changed)

    def evaluate(self) -> List[Dict[str, Any]]:
        """Run every rule once now, whatever the interval; returns the
        transitions this round caused (empty when nothing changed state)."""
        with self._lock:
            changed = self._round(self._clock())
        self._announce(changed)
        return changed

    def _round(self, now: float) -> List[Dict[str, Any]]:
        """One evaluation round at ``now`` (the caller holds the lock)."""
        self._last = now
        self.evaluations += 1
        changed: List[Dict[str, Any]] = []
        for rule in self.rules:
            state = self._states[rule.name]
            value = rule.measure(self.registry, now)
            state["value"] = value
            if rule.breached(value):
                state["streak"] += 1
                if state["state"] == "ok" and state["streak"] >= rule.for_samples:
                    state["state"] = "firing"
                    state["since"] = now
                    changed.append(self._transition(rule, "firing", value, now))
            else:
                state["streak"] = 0
                if state["state"] == "firing":
                    state["state"] = "ok"
                    state["since"] = None
                    changed.append(self._transition(rule, "resolved", value, now))
        self._m_firing.set(
            sum(1 for s in self._states.values() if s["state"] == "firing")
        )
        return changed

    def _announce(self, changed: List[Dict[str, Any]]) -> None:
        for transition in changed:
            self._m_transitions.inc(rule=transition["rule"], to=transition["to"])
            if self.log.enabled:
                emit = (
                    self.log.warning
                    if transition["to"] == "firing"
                    else self.log.info
                )
                emit(
                    "alert.%s" % transition["to"],
                    rule=transition["rule"],
                    condition=transition["condition"],
                    value=transition["value"],
                    severity=transition["severity"],
                )

    def _transition(
        self, rule: AlertRule, to: str, value: Optional[float], ts: float
    ) -> Dict[str, Any]:
        transition = {
            "rule": rule.name,
            "to": to,
            "condition": rule.condition(),
            "severity": rule.severity,
            "value": value,
            "ts": ts,
        }
        self.transitions.append(transition)
        if len(self.transitions) > self.KEEP_TRANSITIONS:
            del self.transitions[: -self.KEEP_TRANSITIONS]
        return transition

    def firing(self) -> List[Dict[str, Any]]:
        """The rules currently firing, as JSON-ready dicts."""
        with self._lock:
            return [
                dict(
                    rule.describe(),
                    state="firing",
                    value=self._states[rule.name]["value"],
                    since=self._states[rule.name]["since"],
                )
                for rule in self.rules
                if self._states[rule.name]["state"] == "firing"
            ]

    def status(self) -> Dict[str, Any]:
        """The whole engine as one JSON-ready dict (the ``/alerts``
        payload)."""
        with self._lock:
            rules = [
                dict(
                    rule.describe(),
                    state=self._states[rule.name]["state"],
                    streak=self._states[rule.name]["streak"],
                    value=self._states[rule.name]["value"],
                    since=self._states[rule.name]["since"],
                )
                for rule in self.rules
            ]
        return {
            "evaluations": self.evaluations,
            "firing": [r["name"] for r in rules if r["state"] == "firing"],
            "rules": rules,
            "transitions": list(self.transitions[-self.KEEP_TRANSITIONS:]),
        }

    def __repr__(self) -> str:
        return "AlertEngine(%d rules, %d firing)" % (
            len(self.rules),
            len(self.firing()),
        )
