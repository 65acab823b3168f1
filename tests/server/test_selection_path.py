"""Tripwire: how much work one uncached selection or boolean does.

The companion of ``test_hit_path.py`` for the engine's heaviest operators.
A ``read_scan``-shaped ``ac`` and ``d`` over a few hundred entries, each
operand on one base, are served through the service with the result
cache emptied first, so every search plans, reads its operands by one
shared scan and runs one stack pass.  A boolean ``&``, ``|`` or ``-`` of
two leaves on the same base reads both by one shared scan too, and its
label table keeps or drops each labelled entry.  The interpreter's
function calls (``sys.setprofile`` "call" and "c_call" events,
comprehensions aside) are deterministic, so each count is held to a
budget: the count when the budget was set plus 10 %.  A change that puts
per-entry work back into a read -- a second scan, an annotated run read
back, a DN method per stack step, a filter called per entry instead of
once per page, a run written or read a record at a time -- fails here
before any benchmark runs.  As for hits, each case is counted with the
default sinks and again with every sink on.
"""

import pytest

from repro.server import DirectoryService
from repro.workload import balanced_instance

from tests.logcap import capture

from .test_hit_path import _calls, all_sinks_service

BASE = "name=e1, name=e0"

#: (query, rows, call budget) over a 976-entry subtree.  The budgets are
#: the counts when they were set (4 348, 6 026, 2 933, 3 710 and 3 590
#: calls) plus 10 %.  The first three were 16 701, 17 123 and 15 991
#: while scans, filters, runs and the stack went an entry at a time and
#: a boolean scanned each leaf into its own run (``|`` and ``-`` then
#: made 18 932 and 18 736); 32 122, 26 677 and 23 759 while every leaf
#: tested an entry through ``Filter.matches`` (an ``Entry.values`` call
#: and a schema lookup per entry, a coercion per value); and the first
#: two were 71 602 and 63 097 when each operand was scanned into its own
#: run, the runs merged, and the pass annotated every entry for a second
#: scan to select from.
CASES = {
    "ac": (
        "(ac (%s ? sub ? weight>=52) (%s ? sub ? level=0) (%s ? sub ? kind=beta))"
        % (BASE, BASE, BASE),
        169,
        4782,
    ),
    "d": (
        "(d (%s ? sub ? weight<48) (%s ? sub ? weight<53))" % (BASE, BASE),
        119,
        6628,
    ),
    "and": (
        "(& (%s ? sub ? name=*77*) (%s ? sub ? weight<55))" % (BASE, BASE),
        13,
        3226,
    ),
    "or": (
        "(| (%s ? sub ? name=*77*) (%s ? sub ? weight<55))" % (BASE, BASE),
        560,
        4081,
    ),
    "diff": (
        "(- (%s ? sub ? weight<55) (%s ? sub ? name=*77*))" % (BASE, BASE),
        541,
        3949,
    ),
}


#: The same misses with every sink on: the counts when set (4 560,
#: 6 224, 3 128, 3 905 and 3 785 calls) plus 10 %.  They were 4 564,
#: 6 228, 3 132, 3 909 and 3 789 while the event log merged bound fields
#: into every line and counted what it wrote, and 5 815, 7 400, 4 325,
#: 5 102 and 4 982 while a traced shared pass resumed a counting
#: generator per entry and each span cost ~90 calls.
ALL_SINKS = {"ac": 5016, "d": 6846, "and": 3440, "or": 4295, "diff": 4163}


@pytest.fixture(scope="module")
def service():
    svc = DirectoryService(
        balanced_instance(2000, seed=11), page_size=64, buffer_pages=64,
    )
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def observed_service():
    svc = all_sinks_service(page_size=64, buffer_pages=64)
    yield svc
    svc.close()


def _miss(service, query):
    service.cache.clear()
    results = []
    calls = _calls(lambda: results.append(service.search(query)))
    (result,) = results
    assert not result.cached
    return result, calls


def _miss_within_budget(service, case, budget):
    query, rows, _ = CASES[case]
    service.search(query)  # statistics and the first plan are built here
    result, calls = _miss(service, query)
    assert len(result) == rows
    assert calls <= budget, "an uncached %s made %d calls (budget %d)" % (case, calls, budget)


@pytest.mark.parametrize("case", sorted(CASES))
def test_uncached_selection_stays_within_its_call_budget(service, case):
    _miss_within_budget(service, case, CASES[case][2])


@pytest.mark.parametrize("case", sorted(ALL_SINKS))
def test_uncached_selection_with_every_sink_on_stays_within_its_call_budget(
    observed_service, case
):
    with capture():
        _miss_within_budget(observed_service, case, ALL_SINKS[case])


def test_count_is_deterministic(service):
    query = CASES["d"][0]
    service.search(query)
    assert len({_miss(service, query)[1] for _ in range(3)}) == 1
