"""Query AST construction, traversal, language-level classification."""

import pytest

from repro.filters.ast import Equality, MatchAll
from repro.query.aggregates import (
    AggSelFilter,
    Constant,
    EntryAggregate,
    WITNESS_COUNT_POSITIVE,
)
from repro.query.ast import (
    And,
    AtomicQuery,
    Diff,
    EmbeddedRef,
    HierarchySelect,
    Or,
    QueryError,
    Scope,
    SimpleAggSelect,
    language_level,
)
from repro.workload import RandomQueries, random_instance


def atomic(base="dc=com", scope=Scope.SUB):
    return AtomicQuery(base, scope, MatchAll())


class TestAtomic:
    def test_base_parsed_from_string(self):
        q = atomic()
        assert str(q.base) == "dc=com"

    def test_bad_scope(self):
        with pytest.raises(QueryError):
            AtomicQuery("dc=com", "subtree", MatchAll())

    def test_str(self):
        q = AtomicQuery("dc=com", Scope.SUB, Equality("cn", "x"))
        assert str(q) == "(dc=com ? sub ? cn=x)"


class TestBoolean:
    def test_structure(self):
        q = Diff(atomic(), And(atomic(), atomic()))
        assert q.node_count() == 5
        assert len(q.atomic_leaves()) == 3

    def test_equality(self):
        assert And(atomic(), atomic()) == And(atomic(), atomic())
        assert And(atomic(), atomic()) != Or(atomic(), atomic())


class TestHierarchySelect:
    def test_binary_ops(self):
        for op in ("p", "c", "a", "d"):
            q = HierarchySelect(op, atomic(), atomic())
            assert q.children() == (q.first, q.second)

    def test_ternary_ops(self):
        for op in ("ac", "dc"):
            q = HierarchySelect(op, atomic(), atomic(), atomic())
            assert len(q.children()) == 3

    def test_arity_enforced(self):
        with pytest.raises(QueryError):
            HierarchySelect("p", atomic(), atomic(), atomic())
        with pytest.raises(QueryError):
            HierarchySelect("ac", atomic(), atomic())

    def test_unknown_op(self):
        with pytest.raises(QueryError):
            HierarchySelect("x", atomic(), atomic())


class TestSimpleAggSelect:
    def test_rejects_witness_terms(self):
        with pytest.raises(QueryError):
            SimpleAggSelect(atomic(), WITNESS_COUNT_POSITIVE)

    def test_ok(self):
        agg = AggSelFilter(EntryAggregate("count", "$1", "tag"), ">", Constant(1))
        q = SimpleAggSelect(atomic(), agg)
        assert q.children() == (q.operand,)


class TestEmbeddedRef:
    def test_requires_attribute(self):
        with pytest.raises(QueryError):
            EmbeddedRef("vd", atomic(), atomic(), "")

    def test_unknown_op(self):
        with pytest.raises(QueryError):
            EmbeddedRef("xy", atomic(), atomic(), "ref")


class TestLanguageLevel:
    def test_l0(self):
        assert language_level(atomic()) == 0
        assert language_level(Diff(atomic(), atomic())) == 0

    def test_l1(self):
        assert language_level(HierarchySelect("c", atomic(), atomic())) == 1

    def test_l2_structural(self):
        q = HierarchySelect("c", atomic(), atomic(), agg=WITNESS_COUNT_POSITIVE)
        assert language_level(q) == 2

    def test_l2_simple(self):
        agg = AggSelFilter(EntryAggregate("min", "$1", "n"), ">", Constant(1))
        assert language_level(SimpleAggSelect(atomic(), agg)) == 2

    def test_l3(self):
        assert language_level(EmbeddedRef("vd", atomic(), atomic(), "ref")) == 3

    def test_nested_takes_max(self):
        inner = EmbeddedRef("dv", atomic(), atomic(), "ref")
        q = And(HierarchySelect("a", atomic(), atomic()), inner)
        assert language_level(q) == 3


class TestWithChildren:
    def test_atomic_returns_itself(self):
        q = atomic()
        assert q.with_children(()) is q

    def test_new_children_keep_operator_and_parameters(self):
        a, b, c = atomic("dc=com"), atomic("dc=org"), atomic("dc=net")
        assert Diff(a, b).with_children((b, a)) == Diff(b, a)
        agg = WITNESS_COUNT_POSITIVE
        assert HierarchySelect("dc", a, b, c, agg).with_children((c, b, a)) == (
            HierarchySelect("dc", c, b, a, agg)
        )
        simple = AggSelFilter(EntryAggregate("min", "$1", "n"), ">", Constant(1))
        assert SimpleAggSelect(a, simple).with_children((b,)) == SimpleAggSelect(b, simple)
        assert EmbeddedRef("dv", a, b, "ref").with_children((b, a)) == (
            EmbeddedRef("dv", b, a, "ref")
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_every_node_rebuilds_over_its_own_children(self, seed):
        queries = RandomQueries(random_instance(seed, size=30), seed=seed)
        for make in (queries.l0, queries.l1, queries.l2, queries.l3):
            for node in make(2).walk():
                rebuilt = node.with_children(node.children())
                assert type(rebuilt) is type(node)
                assert rebuilt == node and str(rebuilt) == str(node)
