"""Directory statistics and cardinality estimation.

The paper assumes atomic queries are evaluated "efficiently ... with the
help of B-tree indices" but leaves *choosing* an access path to the
engine.  This module supplies what a real directory server keeps for that
choice: one-scan statistics over the master run --

- per attribute: how many entries carry it and how many values exist;
- for int attributes: min/max plus an equi-width histogram;
- for string attributes: exact frequencies of the most common values and
  the distinct-value count;
- per depth: entry counts (for scope estimates);

and a :class:`CardinalityEstimator` that turns a filter + base + scope
into an estimated result size.  Estimates only steer access-path choice
and EXPLAIN output; correctness never depends on them.

Statistics do not have to stay a load-time snapshot:
:class:`LiveDirectoryStatistics` subscribes to an
:class:`~repro.storage.maintenance.UpdatableDirectory`'s record and
compaction listeners and keeps the counters current -- incremental
per-attribute deltas for adds/deletes/modifies (the write path attaches
the pre-image it already holds), and a full rebuild folded into the next
compaction when a delta is not locally decidable (subtree deletes,
replayed records without pre-images).
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, Optional

from ..filters.ast import (
    Comparison,
    Equality,
    Filter,
    FilterAnd,
    FilterNot,
    FilterOr,
    MatchAll,
    Presence,
    Substring,
)
from ..model.dn import DN
from ..query.ast import AtomicQuery, Scope
from ..storage.store import DirectoryStore

__all__ = [
    "AttributeStats",
    "DirectoryStatistics",
    "LiveDirectoryStatistics",
    "CardinalityEstimator",
]

_HISTOGRAM_BUCKETS = 16
_TOP_VALUES = 32


class AttributeStats:
    """Collected statistics for one attribute."""

    __slots__ = (
        "name",
        "entries_with",
        "value_count",
        "int_min",
        "int_max",
        "histogram",
        "top_values",
        "distinct_estimate",
    )

    def __init__(self, name: str):
        self.name = name
        self.entries_with = 0
        self.value_count = 0
        self.int_min: Optional[int] = None
        self.int_max: Optional[int] = None
        self.histogram = [0] * _HISTOGRAM_BUCKETS
        self.top_values: Dict[str, int] = {}
        self.distinct_estimate = 0

    def bucket_of(self, value: int) -> int:
        if self.int_min is None or self.int_max is None or self.int_max == self.int_min:
            return 0
        span = self.int_max - self.int_min
        index = int((value - self.int_min) * _HISTOGRAM_BUCKETS / (span + 1))
        return max(0, min(_HISTOGRAM_BUCKETS - 1, index))

    def range_fraction(self, low: Optional[float], high: Optional[float]) -> float:
        """Fraction of this attribute's int values inside [low, high]."""
        total = sum(self.histogram)
        if total == 0 or self.int_min is None or self.int_max is None:
            return 0.0
        if low is None:
            low = self.int_min
        if high is None:
            high = self.int_max
        if high < self.int_min or low > self.int_max:
            return 0.0
        width = (self.int_max - self.int_min + 1) / _HISTOGRAM_BUCKETS
        covered = 0.0
        for bucket, count in enumerate(self.histogram):
            bucket_low = self.int_min + bucket * width
            bucket_high = bucket_low + width
            overlap = max(0.0, min(high + 1, bucket_high) - max(low, bucket_low))
            if overlap > 0:
                covered += count * overlap / width
        return min(1.0, covered / total)

    def eq_fraction(self, value: str) -> float:
        """Fraction of entries carrying this exact value."""
        if self.entries_with == 0:
            return 0.0
        if value in self.top_values:
            return self.top_values[value] / max(self.entries_with, 1)
        if self.distinct_estimate:
            # Not among the common values: assume a uniform share of the
            # remaining mass.
            common_mass = sum(self.top_values.values())
            rest = max(self.value_count - common_mass, 0)
            rest_distinct = max(self.distinct_estimate - len(self.top_values), 1)
            return (rest / rest_distinct) / max(self.entries_with, 1)
        return 0.0

    # -- incremental maintenance ---------------------------------------------

    def apply_values(self, values, sign: int) -> None:
        """Fold one entry's values in (``sign=+1``) or out (``-1``).

        Deltas are approximate by design: the histogram's bucket bounds and
        the tracked common-value set stay as collected (a value outside the
        int range clamps to the edge bucket; a new value joins the untracked
        mass), and ``distinct_estimate`` only grows.  The next full rebuild
        re-tightens everything; meanwhile the counters the estimator divides
        by (``entries_with``, ``value_count``, ``total_entries``) are exact.
        """
        self.entries_with = max(self.entries_with + sign, 0)
        self.value_count = max(self.value_count + sign * len(values), 0)
        for value in values:
            if isinstance(value, int) and not isinstance(value, bool):
                if self.int_min is not None:
                    bucket = self.bucket_of(value)
                    self.histogram[bucket] = max(self.histogram[bucket] + sign, 0)
                elif sign > 0:
                    self.int_min = self.int_max = value
                    self.histogram[self.bucket_of(value)] += 1
            text = str(value)
            if text in self.top_values:
                self.top_values[text] = max(self.top_values[text] + sign, 0)


class DirectoryStatistics:
    """Whole-store statistics, collected in one master scan."""

    def __init__(self, total_entries: int, depth_counts: Dict[int, int],
                 attributes: Dict[str, AttributeStats]):
        self.total_entries = total_entries
        self.depth_counts = depth_counts
        self.attributes = attributes

    @classmethod
    def collect(cls, store: DirectoryStore) -> "DirectoryStatistics":
        depth_counts: Dict[int, int] = {}
        attributes: Dict[str, AttributeStats] = {}
        counters: Dict[str, Counter] = {}
        int_values: Dict[str, list] = {}
        total = 0
        for entry in store.scan_all():
            total += 1
            depth = entry.dn.depth()
            depth_counts[depth] = depth_counts.get(depth, 0) + 1
            for attribute in entry.attributes():
                stats = attributes.get(attribute)
                if stats is None:
                    stats = attributes[attribute] = AttributeStats(attribute)
                    counters[attribute] = Counter()
                    int_values[attribute] = []
                values = entry.values(attribute)
                stats.entries_with += 1
                stats.value_count += len(values)
                for value in values:
                    if isinstance(value, int) and not isinstance(value, bool):
                        int_values[attribute].append(value)
                    counters[attribute][str(value)] += 1
        for attribute, stats in attributes.items():
            counter = counters[attribute]
            stats.distinct_estimate = len(counter)
            stats.top_values = dict(counter.most_common(_TOP_VALUES))
            numbers = int_values[attribute]
            if numbers:
                stats.int_min = min(numbers)
                stats.int_max = max(numbers)
                for number in numbers:
                    stats.histogram[stats.bucket_of(number)] += 1
        return cls(total, depth_counts, attributes)

    def attribute(self, name: str) -> Optional[AttributeStats]:
        return self.attributes.get(name)

    def apply_entry(self, entry, sign: int = 1) -> None:
        """Fold one entry into (+1) or out of (-1) the statistics."""
        self.total_entries = max(self.total_entries + sign, 0)
        depth = entry.dn.depth()
        self.depth_counts[depth] = max(self.depth_counts.get(depth, 0) + sign, 0)
        for attribute in entry.attributes():
            stats = self.attributes.get(attribute)
            if stats is None:
                if sign < 0:
                    continue
                stats = self.attributes[attribute] = AttributeStats(attribute)
            stats.apply_values(entry.values(attribute), sign)


class LiveDirectoryStatistics:
    """Statistics that track an
    :class:`~repro.storage.maintenance.UpdatableDirectory` instead of a
    load-time snapshot.

    Attaches to the directory's record and compaction listeners:

    - adds/modifies/deletes apply an incremental per-attribute delta
      (modify and delete use the pre-image the online write path attaches
      to the :class:`~repro.txn.records.ChangeRecord`);
    - a mutation whose delta is not locally decidable -- a subtree delete,
      or a replayed record without a pre-image -- marks the statistics
      *stale*;
    - stale statistics rebuild from the master run at the next compaction
      (the scan piggybacks on maintenance, not on a query), or lazily at
      the next :meth:`current` call if no compaction intervened.

    The first :meth:`current` call performs the initial collection scan.
    Estimator reads and writer deltas may interleave; counter updates are
    individually atomic under the lock, and estimates are advisory
    (correctness never depends on them).
    """

    def __init__(self, directory):
        from ..obs.metrics import get_registry

        self.directory = directory
        self._lock = threading.Lock()
        self._stats: Optional[DirectoryStatistics] = None
        self._stale = True
        self.rebuilds = 0
        self.deltas_applied = 0
        registry = get_registry()
        self._m_rebuilds = registry.counter(
            "repro_stats_rebuilds_total",
            "Full statistics rebuilds (initial collection included)",
        )
        self._m_deltas = registry.counter(
            "repro_stats_deltas_total",
            "Incremental statistics deltas applied, by mutation kind",
            labelnames=("kind",),
        )
        directory.add_record_listener(self._on_record)
        directory.add_compaction_listener(self._on_compaction)

    def detach(self) -> None:
        """Unsubscribe from the directory (idempotent)."""
        self.directory.remove_record_listener(self._on_record)
        self.directory.remove_compaction_listener(self._on_compaction)

    @property
    def stale(self) -> bool:
        return self._stale

    def current(self) -> DirectoryStatistics:
        """The up-to-date statistics (rebuilding first if stale)."""
        with self._lock:
            if self._stats is None or self._stale:
                self._rebuild()
            return self._stats

    # -- listeners ----------------------------------------------------------

    def _rebuild(self) -> None:
        """Collect from a pinned view's overlay-merged scan, so a rebuild
        is exact even with mutations still pending."""
        with self.directory.acquire_view() as view:
            stats = DirectoryStatistics.collect(view)
        self._stats = stats
        self._stale = False
        self.rebuilds += 1
        self._m_rebuilds.inc()

    def _on_record(self, record) -> None:
        with self._lock:
            if self._stats is None or self._stale:
                return  # nothing maintained yet / rebuild already owed
            if record.kind == "add":
                self._stats.apply_entry(record.entry, 1)
            elif record.kind == "modify":
                pre = getattr(record, "pre_image", None)
                if pre is None:
                    self._stale = True
                    return
                self._stats.apply_entry(pre, -1)
                self._stats.apply_entry(record.entry, 1)
            else:  # delete
                pre = getattr(record, "pre_image", None)
                if record.subtree or pre is None:
                    # The removed region is not known entry-by-entry.
                    self._stale = True
                    return
                self._stats.apply_entry(pre, -1)
            self.deltas_applied += 1
            self._m_deltas.inc(kind=record.kind)

    def _on_compaction(self, store) -> None:
        with self._lock:
            if self._stats is not None and self._stale:
                # Fold the rebuild into maintenance: the compaction just
                # paid one co-scan; the statistics scan rides along instead
                # of surprising a later query.
                self._rebuild()


class CardinalityEstimator:
    """Selectivity and result-size estimates over collected statistics.

    ``stats`` may be a :class:`DirectoryStatistics` snapshot (the seed
    behaviour), a :class:`LiveDirectoryStatistics` -- then every estimate
    reads the current, incrementally maintained state -- or None to
    collect a snapshot from the store now (eagerly, so the scan never
    lands inside a caller's measured evaluation window).
    """

    #: Fallbacks when statistics cannot speak.
    DEFAULT_SUBSTRING = 0.1
    DEFAULT_EQ = 0.05

    def __init__(self, store: DirectoryStore, stats=None):
        self.store = store
        self._source = stats if stats is not None else DirectoryStatistics.collect(store)

    @property
    def stats(self) -> DirectoryStatistics:
        source = self._source
        if isinstance(source, LiveDirectoryStatistics):
            return source.current()
        return source

    # -- filters -------------------------------------------------------------

    def filter_selectivity(self, filter_: Filter) -> float:
        """Estimated fraction of entries satisfying ``filter_``."""
        total = max(self.stats.total_entries, 1)
        if isinstance(filter_, MatchAll):
            return 1.0
        if isinstance(filter_, Presence):
            stats = self.stats.attribute(filter_.attribute)
            return (stats.entries_with / total) if stats else 0.0
        if isinstance(filter_, Equality):
            stats = self.stats.attribute(filter_.attribute)
            if stats is None or stats.entries_with == 0:
                return 0.0
            # eq_fraction is relative to carrying entries; rescale to all.
            return stats.eq_fraction(str(filter_.value)) * stats.entries_with / total
        if isinstance(filter_, Comparison):
            stats = self.stats.attribute(filter_.attribute)
            if stats is None or stats.int_min is None:
                return 0.0
            if filter_.op in ("<", "<="):
                high = filter_.value - (1 if filter_.op == "<" else 0)
                fraction = stats.range_fraction(None, high)
            else:
                low = filter_.value + (1 if filter_.op == ">" else 0)
                fraction = stats.range_fraction(low, None)
            return fraction * stats.entries_with / total
        if isinstance(filter_, Substring):
            stats = self.stats.attribute(filter_.attribute)
            base = (stats.entries_with / total) if stats else 0.0
            return base * self.DEFAULT_SUBSTRING
        if isinstance(filter_, FilterAnd):
            product = 1.0
            for operand in filter_.operands:
                product *= self.filter_selectivity(operand)
            return product
        if isinstance(filter_, FilterOr):
            miss = 1.0
            for operand in filter_.operands:
                miss *= 1.0 - self.filter_selectivity(operand)
            return 1.0 - miss
        if isinstance(filter_, FilterNot):
            return 1.0 - self.filter_selectivity(filter_.operand)
        return self.DEFAULT_EQ

    # -- scopes ----------------------------------------------------------------

    def scope_size(self, base: DN, scope: str) -> int:
        """Estimated entries inside (base, scope), from the sparse index
        (subtrees are contiguous page ranges -- an upper bound with page
        granularity) and depth counts."""
        if scope == Scope.BASE:
            return 1
        start, end = self.store.page_range_for_subtree(base)
        subtree_upper = max(0, end - start) * self.store.pager.page_size
        subtree_upper = min(subtree_upper, self.stats.total_entries)
        if base.is_null():
            subtree_upper = self.stats.total_entries
        if scope == Scope.SUB:
            return max(subtree_upper, 1)
        # one: the base plus its children; approximate children by the
        # average fanout at the base's depth.
        depth = base.depth()
        parents = self.stats.depth_counts.get(depth, 1)
        children_at = self.stats.depth_counts.get(depth + 1, 0)
        fanout = children_at / max(parents, 1)
        return int(min(subtree_upper, 1 + fanout)) or 1

    def atomic_cardinality(self, query: AtomicQuery) -> float:
        """Estimated result size of an atomic query."""
        return self.scope_size(query.base, query.scope) * self.filter_selectivity(
            query.filter
        )
