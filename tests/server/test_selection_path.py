"""Tripwire: how much work one uncached hierarchical selection does.

The companion of ``test_hit_path.py`` for the engine's heaviest operators.
A ``read_scan``-shaped ``ac`` and ``d`` over a few hundred entries, each
operand on one base, are served through the service with the result
cache emptied first, so every search plans, reads its operands by one
shared scan and runs one stack pass.  The interpreter's function calls
(``sys.setprofile`` "call" and "c_call" events, comprehensions aside) are
deterministic, so each count is held to a budget: the count when the
budget was set plus 10 %.  A change that puts per-entry work back into
the pass -- a second scan, an annotated run read back, a DN method per
stack step -- fails here before any benchmark runs.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.server import DirectoryService
from repro.workload import balanced_instance

from .test_hit_path import _calls

BASE = "name=e1, name=e0"

#: (query, rows, call budget) over a 976-entry subtree.  The budgets are
#: the counts when they were set (31 550 and 26 205 calls, down from
#: 71 602 and 63 097 when each operand was scanned into its own run, the
#: runs merged, and the pass annotated every entry for a second scan to
#: select from) plus 10 %.
CASES = {
    "ac": (
        "(ac (%s ? sub ? weight>=52) (%s ? sub ? level=0) (%s ? sub ? kind=beta))"
        % (BASE, BASE, BASE),
        169,
        34705,
    ),
    "d": (
        "(d (%s ? sub ? weight<48) (%s ? sub ? weight<53))" % (BASE, BASE),
        119,
        28826,
    ),
}


@pytest.fixture(scope="module")
def service():
    svc = DirectoryService(
        balanced_instance(2000, seed=11), metrics=MetricsRegistry(),
        page_size=64, buffer_pages=64,
    )
    yield svc
    svc.close()


def _miss(service, query):
    service.cache.clear()
    results = []
    calls = _calls(lambda: results.append(service.search(query)))
    (result,) = results
    assert not result.cached
    return result, calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_uncached_selection_stays_within_its_call_budget(service, case):
    query, rows, budget = CASES[case]
    service.search(query)  # statistics and the first plan are built here
    result, calls = _miss(service, query)
    assert len(result) == rows
    assert calls <= budget, "an uncached %s made %d calls (budget %d)" % (case, calls, budget)


def test_count_is_deterministic(service):
    query = CASES["d"][0]
    service.search(query)
    assert len({_miss(service, query)[1] for _ in range(3)}) == 1
