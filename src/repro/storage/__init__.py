"""The external-memory substrate: simulated block device, runs, stacks,
sorting, the directory store and secondary indices."""

from .extsort import external_sort, merge_runs
from .index import AttributeIndex
from .maintenance import UpdatableDirectory, UpdateError
from .pagedstack import PagedStack
from .pager import IOStats, Pager, PagerError
from .runs import Run, RunReader, RunWriter, run_from_iterable
from .store import DirectoryStore

__all__ = [
    "AttributeIndex",
    "external_sort",
    "merge_runs",
    "UpdatableDirectory",
    "UpdateError",
    "PagedStack",
    "IOStats",
    "Pager",
    "PagerError",
    "Run",
    "RunReader",
    "RunWriter",
    "run_from_iterable",
    "DirectoryStore",
]
