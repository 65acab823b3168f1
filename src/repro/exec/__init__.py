"""Bounded worker-pool execution for the federation's leaf scatter.

One :class:`WorkerPool` per federation bounds the concurrency;
``max_workers=1`` -- the default -- is the inline sequential path with
zero threading overhead.  See docs/ARCHITECTURE.md, "Concurrency model",
for what is shared, what is per-worker and where the gather barrier
sits.
"""

from .pool import WorkerPool

__all__ = ["WorkerPool"]
