"""A bounded worker pool with deterministic ordered gather.

The pool has one user: the federation's scatter-gather, which fans each
remote atomic sub-query out to its owning servers so their round trips
overlap.  Everything above the leaves runs on the calling thread.  The
pool's contract is deliberately narrow:

- :meth:`WorkerPool.map_ordered` runs one callable per item and returns
  the results **in item order** -- the gather barrier.  Whatever the
  threads did in between, the caller observes the same deterministic
  sequence it would have seen running the items one by one.
- ``max_workers=1`` (the default everywhere) executes inline on the
  calling thread: no executor, no threads, no queue -- the historical
  sequential behaviour, bit for bit.
- A task that itself calls :meth:`map_ordered` runs the nested batch
  inline on its own worker thread, so a bounded pool can never deadlock
  waiting for itself.
- If any task raises, the gather still waits for **every** task to
  finish before re-raising the first error (in item order) -- no task is
  left running against shared state after the barrier returns.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence

__all__ = ["WorkerPool"]


class WorkerPool:
    """A lazily started, bounded thread pool (``max_workers=1`` = inline)."""

    def __init__(self, max_workers: int = 1, name: str = "repro-exec"):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.name = name
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: Batches that actually fanned out to threads (inline runs do not
        #: count) -- the zero-overhead checks assert this stays 0.
        self.parallel_batches = 0

    @property
    def parallel(self) -> bool:
        """Whether this pool can run tasks concurrently at all."""
        return self.max_workers > 1

    @property
    def in_task(self) -> bool:
        """Whether the calling thread is currently executing a pool task."""
        return getattr(self._tls, "in_task", False)

    def _executor_or_create(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self.name,
                )
            return self._executor

    def map_ordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> List[Any]:
        """Run ``fn`` over ``items``; return results in item order.

        Inline (and therefore in exactly the sequential order) when the
        pool is single-worker, when there is at most one item, or when
        called from inside another task of this pool."""
        work: Sequence[Any] = list(items)
        if not self.parallel or len(work) <= 1 or self.in_task:
            return [fn(item) for item in work]
        executor = self._executor_or_create()
        with self._lock:
            self.parallel_batches += 1
        futures = [executor.submit(self._run_task, fn, item) for item in work]
        results: List[Any] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # gather everything, then re-raise
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def _run_task(self, fn: Callable[[Any], Any], item: Any) -> Any:
        self._tls.in_task = True
        try:
            return fn(item)
        finally:
            self._tls.in_task = False

    def close(self) -> None:
        """Shut the executor down (idempotent; inline pools are no-ops)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return "WorkerPool(max_workers=%d%s)" % (
            self.max_workers,
            "" if self._executor is None else ", started",
        )
