"""Stress and degenerate shapes: deep chains (stack spilling), wide stars,
empty operands, pathological labels."""

import pytest

from repro.engine import QueryEngine
from repro.engine.common import labeled_merge
from repro.engine.stackjoin import hierarchical_annotate
from repro.model.dn import ROOT_DN
from repro.model.instance import DirectoryInstance
from repro.query.aggregates import EntryAggregate
from repro.query.semantics import evaluate, witness_set
from repro.query.parser import parse_query
from repro.storage.pager import Pager
from repro.storage.runs import run_from_iterable
from repro.workload import synthetic_schema

COUNT = EntryAggregate("count", "$2", None)


def chain_instance(depth: int) -> DirectoryInstance:
    """A single path of ``depth`` entries: the stack holds everything."""
    instance = DirectoryInstance(synthetic_schema())
    dn = ROOT_DN
    for index in range(depth):
        dn = dn.child("name=c%d" % index)
        instance.add(dn, ["node"], name="c%d" % index,
                     kind="alpha" if index % 2 == 0 else "beta",
                     level=index % 10)
    return instance


def star_instance(width: int) -> DirectoryInstance:
    """One root with ``width`` children: maximal fanout, depth 2."""
    instance = DirectoryInstance(synthetic_schema())
    root = ROOT_DN.child("name=root")
    instance.add(root, ["node"], name="root", kind="alpha")
    for index in range(width):
        instance.add(root.child("name=s%d" % index), ["node"],
                     name="s%d" % index, kind="beta", weight=index % 100)
    return instance


class TestDeepChain:
    def test_chain_forces_stack_spill_yet_correct(self):
        depth = 300
        instance = chain_instance(depth)
        # page_size 4 and a chain of 300: the stack must spill repeatedly.
        engine = QueryEngine.from_instance(instance, page_size=4, buffer_pages=3)
        query = parse_query("(a ( ? sub ? kind=beta) ( ? sub ? kind=alpha))")
        expected = [str(e.dn) for e in evaluate(query, instance)]
        assert engine.run(query).dns() == expected
        assert len(expected) == depth // 2  # every beta has an alpha ancestor

    def test_chain_descendant_counts(self):
        instance = chain_instance(120)
        entries = list(instance)
        pager = Pager(page_size=4, buffer_pages=3)
        first = run_from_iterable(pager, entries)
        second = run_from_iterable(pager, entries)
        annotated = hierarchical_annotate(pager, "d", labeled_merge([first, second]), [COUNT])
        for position, (entry, (count,)) in enumerate(annotated.to_list()):
            assert count == len(entries) - position - 1

    def test_chain_blocking_every_other(self):
        instance = chain_instance(60)
        engine = QueryEngine.from_instance(instance, page_size=4, buffer_pages=3)
        query = parse_query(
            "(ac ( ? sub ? kind=beta) ( ? sub ? kind=alpha) ( ? sub ? kind=beta))"
        )
        expected = [str(e.dn) for e in evaluate(query, instance)]
        assert engine.run(query).dns() == expected


class TestStar:
    def test_children_count_at_root(self):
        instance = star_instance(500)
        engine = QueryEngine.from_instance(instance, page_size=16, buffer_pages=4)
        result = engine.run(
            "(c ( ? sub ? name=root) ( ? sub ? kind=beta) count($2) = 500)"
        )
        assert len(result) == 1

    def test_parent_witnesses_for_all_leaves(self):
        instance = star_instance(200)
        engine = QueryEngine.from_instance(instance, page_size=8, buffer_pages=4)
        result = engine.run("(p ( ? sub ? kind=beta) ( ? sub ? name=root))")
        assert len(result) == 200


class TestEmptyAndOverlap:
    def test_empty_operands_everywhere(self):
        instance = chain_instance(10)
        engine = QueryEngine.from_instance(instance, page_size=4)
        nothing = "( ? sub ? name=nosuch)"
        everything = "( ? sub ? objectClass=*)"
        for template in (
            "(a %s %s)", "(d %s %s)", "(p %s %s)", "(c %s %s)",
            "(& %s %s)", "(- %s %s)",
            "(vd %s %s ref)", "(dv %s %s ref)",
        ):
            assert engine.run(template % (nothing, everything)).dns() == [], template
        # Union with an empty side is the other side.
        assert len(engine.run("(| %s %s)" % (nothing, everything))) == 10
        # Empty second operand: nothing qualifies either.
        assert engine.run("(a %s %s)" % (everything, nothing)).dns() == []

    def test_identical_operands(self):
        # Witness relations are proper: no entry witnesses itself.
        instance = chain_instance(20)
        engine = QueryEngine.from_instance(instance, page_size=4)
        everything = "( ? sub ? objectClass=*)"
        result = engine.run("(d %s %s)" % (everything, everything))
        # All but the deepest entry have a proper descendant.
        assert len(result) == 19
        result = engine.run("(a %s %s)" % (everything, everything))
        assert len(result) == 19

    def test_aggregate_on_empty_population(self):
        instance = chain_instance(10)
        engine = QueryEngine.from_instance(instance, page_size=4)
        result = engine.run(
            "(g ( ? sub ? name=nosuch) min(level)=min(min(level)))"
        )
        assert result.dns() == []
