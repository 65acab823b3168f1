"""The benchmark reaches into ``src/`` by name: every callable its shims
rebind, and every service/directory attribute its harness reads, must keep
resolving -- a refactor that renames one silently blinds a layer metric
(or breaks the run) long after tier-1 went green."""

import importlib
import os
import sys

import pytest

from repro.server import DirectoryService
from repro.workload import balanced_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if not os.path.isdir(os.path.join(ROOT, "bench")):
    pytest.skip("no bench/ package in this checkout", allow_module_level=True)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.shims import TARGETS  # noqa: E402


@pytest.mark.parametrize(
    "module_name,class_name,attribute",
    sorted({(m, c or "", a) for m, c, a, _span, _flavour in TARGETS}),
)
def test_every_shim_target_resolves(module_name, class_name, attribute):
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attribute))


def test_harness_handles_resolve(tmp_path):
    """What ``bench/harness.py``, ``layers.py`` and ``verify.py`` touch
    besides the shim targets."""
    service = DirectoryService(
        balanced_instance(60, fanout=4, seed=1), durable_dir=str(tmp_path / "d")
    )
    try:
        directory = service.directory
        assert service.cache_stats.snapshot() is not None
        assert service.cache.resident_bytes == 0
        service.cache.clear()
        seen = []
        directory.add_compaction_listener(seen.append)
        assert isinstance(directory.compactions, int)
        assert directory.wal is not None
        assert directory.recovered_records == 0
    finally:
        service.close()
    reference = DirectoryService(
        balanced_instance(60, fanout=4, seed=1), planner="none", cache_bytes=0
    )
    assert reference.cache is None and reference.cache_stats is None
    reference.close()
