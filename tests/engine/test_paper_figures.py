"""The literal figure transcriptions agree with the definitional
semantics (three-way with the generalised engine, tested elsewhere)."""

import pytest

from .paper_figures import (
    compute_eragg_dv,
    compute_hsad,
    compute_hsadc,
    compute_hsagg_ad,
    compute_hspc,
)
from repro.query.semantics import witness_set

from .conftest import random_sublists


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("op", ["p", "c"])
def test_figure_2(op, seed):
    _instance, (first, second) = random_sublists(seed, size=90)
    got = [e.dn for e in compute_hspc(op, first, second)]
    expected = [e.dn for e in first if witness_set(op, e, second)]
    assert got == expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("op", ["a", "d"])
def test_figure_4(op, seed):
    _instance, (first, second) = random_sublists(seed + 50, size=90)
    got = [e.dn for e in compute_hsad(op, first, second)]
    expected = [e.dn for e in first if witness_set(op, e, second)]
    assert got == expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("op", ["ac", "dc"])
def test_figure_5(op, seed):
    _instance, subsets = random_sublists(seed + 100, size=90, lists=3)
    first, second, third = subsets
    got = [e.dn for e in compute_hsadc(op, first, second, third)]
    expected = [e.dn for e in first if witness_set(op, e, second, third)]
    assert got == expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("op", ["a", "d"])
def test_figure_6(op, seed):
    _instance, (first, second) = random_sublists(seed + 150, size=90)
    got = [e.dn for e in compute_hsagg_ad(op, first, second)]
    counts = [len(witness_set(op, e, second)) for e in first]
    peak = max(counts, default=0)
    expected = [e.dn for e, c in zip(first, counts) if c == peak]
    assert got == expected


@pytest.mark.parametrize("seed", range(6))
def test_figure_3(seed):
    _instance, (first, second) = random_sublists(seed + 200, size=90)
    got = [e.dn for e in compute_eragg_dv(first, second, "ref")]
    counts = []
    for entry in first:
        counts.append(sum(1 for w in second if entry.dn in w.values("ref")))
    peak = max(counts, default=0)
    expected = [e.dn for e, c in zip(first, counts) if c == peak]
    assert got == expected


def test_figure_2_wrong_op():
    with pytest.raises(ValueError):
        compute_hspc("a", [], [])
    with pytest.raises(ValueError):
        compute_hsad("p", [], [])
    with pytest.raises(ValueError):
        compute_hsadc("d", [], [], [])
    with pytest.raises(ValueError):
        compute_hsagg_ad("c", [], [])
