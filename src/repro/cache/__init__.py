"""Subtree-keyed semantic query cache with precise update-log invalidation.

Directory workloads are read-heavy and repetitive (white pages, QoS
policy lookup, call routing), yet each ``search`` re-runs the full
external-memory pipeline.  This package adds the missing layer:

- :mod:`~repro.cache.keys` -- canonical query fingerprints via the AST
  normalizer, so syntactically different but ACD-equivalent queries share
  one cache slot;
- :mod:`~repro.cache.footprint` -- static analysis of a query into the
  set of DN-subtree key ranges it can read.  The system invariant
  (reverse-dn order makes every subtree one contiguous range) makes this
  a finite description of a plan's read set;
- :mod:`~repro.cache.store` -- a bounded result store with a byte budget
  and cost-aware eviction (GreedyDual-Size over saved logical page I/Os,
  so expensive aggregates outlive cheap lookups);
- :mod:`~repro.cache.invalidation` -- subscribes a cache to an
  :class:`~repro.storage.maintenance.UpdatableDirectory`'s change-record
  stream: results whose footprint intersects the updated dn's range are
  patched in place when locally decidable and evicted otherwise;
  everything else survives compaction;
- :mod:`~repro.cache.stats` -- hit/miss/eviction/invalidation counters
  and saved-I/O accounting.
"""

from .footprint import Footprint, query_footprint
from .invalidation import IncrementalCacheMaintainer
from .keys import atomic_fingerprint, canonical_text, fingerprint
from .stats import CacheStats
from .store import CachedResult, QueryCache

__all__ = [
    "CacheStats",
    "CachedResult",
    "Footprint",
    "IncrementalCacheMaintainer",
    "QueryCache",
    "atomic_fingerprint",
    "canonical_text",
    "fingerprint",
    "query_footprint",
]
