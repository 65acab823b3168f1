"""Tripwire: how much work one cache-hit search does.

A served result should cost a parse, a fingerprint, a cache probe, the
ACL pass and the sinks -- nothing proportional to the base dn's escape
handling or, without ACL rules, to the result size.  Wall-clock is too
noisy to gate here, so this counts the interpreter's function calls
(``sys.setprofile`` "call" and "c_call" events) of one hit and holds each
count to a budget: the count when the budget was set plus 10 %.  A change
that puts work back on the hit path fails here before any benchmark runs.
Each case is counted twice: with the default sinks (the metric
instruments, the digest and the heat map) and with every sink on (a
tracer, a slow-query log keeping every search and a structured log too).

Comprehension frames are not counted: Python 3.12 inlines them (PEP 709),
so counting them would make the figure depend on the interpreter.
"""

import gc
import sys

import pytest

from repro.obs import Tracer
from repro.server import DirectoryService
from repro.workload import balanced_instance

from tests.logcap import capture

#: A leaf seven RDNs deep, and an inner node five deep with a small subtree.
LEAF = "name=e1400, name=e349, name=e87, name=e21, name=e5, name=e1, name=e0"
INNER = "name=e87, name=e21, name=e5, name=e1, name=e0"

#: (query, rows the hit returns, call budget).  The budgets are the counts
#: when they were set (330 and 583 calls) plus 10 %.  They were 336 and
#: 589 while every search set the buffer hit-rate gauge, and 905 and
#: 1 357 before the escape-free dn parse and the rule-free ACL pass.
CASES = {
    "atomic": ("(%s ? sub ? kind=alpha)" % LEAF, 0, 363),
    "boolean": (
        "(| (%s ? sub ? kind=alpha) (%s ? one ? weight>=50))" % (INNER, INNER),
        7,
        642,
    ),
}

#: The same hits with every sink on: the counts when set (465 and 730
#: calls) plus 10 %.  They were 469 and 734 while the event log merged
#: bound fields into every line and counted what it wrote, 475 and 740
#: while every search set the buffer hit-rate gauge, and 768 and 1 033
#: while each span diffed a dict of probes through a separate context
#: manager and a lock-guarded registry, and read the counters' field
#: names off the class hierarchy.
ALL_SINKS = {"atomic": 512, "boolean": 803}

_COMPREHENSIONS = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))


@pytest.fixture(scope="module")
def service():
    svc = DirectoryService(balanced_instance(2000, seed=11))
    yield svc
    svc.close()


def all_sinks_service(**options) -> DirectoryService:
    """The benchmark instance served with every search sink enabled but
    the process event log, which a test turns on with ``capture()``."""
    return DirectoryService(
        balanced_instance(2000, seed=11), tracer=Tracer(),
        slow_query_seconds=0.0, **options,
    )


@pytest.fixture(scope="module")
def observed_service():
    svc = all_sinks_service()
    yield svc
    svc.close()


def _calls(function) -> int:
    """Function calls made while ``function()`` runs, comprehensions aside."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" or (
            event == "call" and frame.f_code.co_name not in _COMPREHENSIONS
        ):
            count += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


def _hit_within_budget(service, case, budget):
    query, rows, _ = CASES[case]
    service.search(query)  # the miss that makes the next search a hit
    results = []
    calls = _calls(lambda: results.append(service.search(query)))
    (result,) = results
    assert result.cached and len(result) == rows
    assert calls <= budget, "a cache hit made %d calls (budget %d)" % (calls, budget)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cache_hit_stays_within_its_call_budget(service, case):
    _hit_within_budget(service, case, CASES[case][2])


@pytest.mark.parametrize("case", sorted(ALL_SINKS))
def test_cache_hit_with_every_sink_on_stays_within_its_call_budget(
    observed_service, case
):
    with capture():
        _hit_within_budget(observed_service, case, ALL_SINKS[case])


def test_count_is_deterministic(service):
    query = CASES["boolean"][0]
    service.search(query)
    counts = {_calls(lambda: service.search(query)) for _ in range(3)}
    assert len(counts) == 1
