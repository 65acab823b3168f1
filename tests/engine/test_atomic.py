"""Atomic query evaluation: scan vs index paths, scope discipline, I/O."""

import pytest

from repro.engine.atomic import evaluate_atomic, scope_admits
from repro.model.dn import DN, ROOT_DN
from repro.query.ast import AtomicQuery, Scope
from repro.query.parser import parse_query
from repro.query.semantics import atomic_matches
from repro.storage.store import DirectoryStore
from repro.workload import RandomQueries, balanced_instance, random_instance


@pytest.fixture(scope="module")
def stores():
    instance = random_instance(13, size=160)
    plain = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6)
    indexed = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=6)
    indexed.build_indices(("weight", "level", "kind", "tag", "name"))
    return instance, plain, indexed


class TestScopeAdmits:
    def test_base(self):
        base = DN.parse("dc=att, dc=com")
        assert scope_admits(base, Scope.BASE, base)
        assert not scope_admits(base, Scope.BASE, base.child("x=1"))

    def test_one_includes_base_and_children(self):
        base = DN.parse("dc=com")
        assert scope_admits(base, Scope.ONE, base)
        assert scope_admits(base, Scope.ONE, base.child("a=1"))
        assert not scope_admits(base, Scope.ONE, base.child("a=1").child("b=2"))

    def test_sub(self):
        base = DN.parse("dc=com")
        assert scope_admits(base, Scope.SUB, base.child("a=1").child("b=2"))
        assert not scope_admits(base, Scope.SUB, DN.parse("dc=org"))


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    def test_scan_matches_definition(self, stores, seed):
        instance, plain, _indexed = stores
        queries = RandomQueries(instance, seed=seed)
        query = queries.atomic()
        run = evaluate_atomic(plain, query, use_indices=False)
        expected = [
            e.dn for e in instance if atomic_matches(query, e, instance)
        ]
        assert [e.dn for e in run.to_list()] == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_index_path_matches_scan_path(self, stores, seed):
        instance, plain, indexed = stores
        queries = RandomQueries(instance, seed=seed + 100)
        query = queries.atomic()
        scan = evaluate_atomic(plain, query, use_indices=False)
        via_index = evaluate_atomic(indexed, query, use_indices=True)
        assert [e.dn for e in scan.to_list()] == [e.dn for e in via_index.to_list()]

    def test_comparison_via_btree(self, stores):
        instance, _plain, indexed = stores
        query = parse_query("( ? sub ? weight<10)")
        run = evaluate_atomic(indexed, query, use_indices=True)
        expected = [e.dn for e in instance if any(
            isinstance(v, int) and v < 10 for v in e.values("weight"))]
        assert [e.dn for e in run.to_list()] == expected


class TestIOShape:
    def test_base_scope_reads_one_locality(self):
        instance = balanced_instance(4000, fanout=4)
        store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=2)
        store.pager.flush()
        some = list(instance)[1234]
        query = AtomicQuery(some.dn, Scope.BASE, parse_query("( ? base ? objectClass=*)").filter)
        before = store.pager.stats.snapshot()
        run = evaluate_atomic(store, query, use_indices=False)
        assert len(run) == 1
        assert store.pager.stats.since(before).logical_reads <= 3

    def test_sub_scope_reads_only_subtree_range(self):
        instance = balanced_instance(4000, fanout=4)
        store = DirectoryStore.from_instance(instance, page_size=8, buffer_pages=2)
        store.pager.flush()
        deep = [e for e in instance if e.dn.depth() == 4][0]
        subtree = len(list(instance.subtree(deep.dn)))
        query = AtomicQuery(deep.dn, Scope.SUB, parse_query("( ? base ? objectClass=*)").filter)
        before = store.pager.stats.snapshot()
        run = evaluate_atomic(store, query, use_indices=False)
        assert len(run) == subtree
        delta = store.pager.stats.since(before)
        assert delta.logical_reads < store.page_count / 3
