"""Shared fixtures for the engine tests."""

import random

import pytest

from repro.storage.pager import Pager
from repro.storage.runs import run_from_iterable
from repro.workload import random_instance


@pytest.fixture
def pager():
    return Pager(page_size=8, buffer_pages=6)


@pytest.fixture
def repeat_step(request):
    """The pytest-repeat repetition this run is (0 without ``--count``);
    seeded cases add ``1000 * repeat_step`` to draw fresh sublists."""
    callspec = getattr(request.node, "callspec", None)
    return callspec.params.get("__pytest_repeat_step_number", 0) if callspec else 0


def sorted_run(pager, entries):
    """Write entries (any order) as a reverse-dn-sorted run."""
    ordered = sorted(entries, key=lambda e: e.dn.key())
    return run_from_iterable(pager, ordered)


def random_sublists(seed, size=100, lists=2):
    """A random instance plus ``lists`` random sorted entry subsets."""
    instance = random_instance(seed, size=size)
    entries = list(instance)
    rng = random.Random(seed * 7 + 1)
    subsets = []
    for _ in range(lists):
        subset = rng.sample(entries, rng.randint(0, len(entries)))
        subsets.append(sorted(subset, key=lambda e: e.dn.key()))
    return instance, subsets
