"""MVCC version chain: snapshot immutability, folding, truncation."""

import pytest

from repro.model.dn import DN
from repro.model.entry import Entry
from repro.txn.mvcc import VersionChain


def _dn(text):
    return DN.parse(text)


def _entry(text, **attrs):
    dn = DN.parse(text)
    values = {name: [value] for name, value in attrs.items()}
    return Entry(dn, ["node"], values or {"name": ["x"]})


class TestAdvance:
    def test_lsns_are_dense_and_monotone(self):
        chain = VersionChain()
        seen = []
        for i in range(5):
            version = chain.advance(
                adds={}, deletes={_dn("name=n%d, dc=com" % i)}, delete_subtrees=set()
            )
            seen.append(version.lsn)
        assert seen == [1, 2, 3, 4, 5]
        assert chain.head_lsn == 5

    def test_start_lsn_offsets_numbering(self):
        chain = VersionChain(start_lsn=40)
        version = chain.advance(adds={}, deletes=set(), delete_subtrees=set())
        assert version.lsn == 41
        assert chain.floor_lsn == 40


class TestSnapshotIsolation:
    def test_snapshot_does_not_see_later_writes(self):
        chain = VersionChain()
        dn_a = _dn("name=a, dc=com")
        dn_b = _dn("name=b, dc=com")
        chain.advance(adds={dn_a: _entry("name=a, dc=com", name="a")},
                      deletes=set(), delete_subtrees=set())
        snap = chain.snapshot()
        chain.advance(adds={dn_b: _entry("name=b, dc=com", name="b")},
                      deletes={dn_a}, delete_subtrees=set())
        kind, entry = snap.overlay_lookup(dn_a)
        assert kind == "add"
        assert entry.values("name") == ("a",)
        assert snap.overlay_lookup(dn_b) is None
        assert snap.lsn == 1
        # A fresh snapshot sees the new world.
        later = chain.snapshot()
        assert later.is_deleted(dn_a)
        assert later.overlay_lookup(dn_b)[0] == "add"
        assert later.lsn == 2

    def test_snapshot_survives_truncation(self):
        chain = VersionChain()
        dns = []
        for i in range(4):
            dn = _dn("name=n%d, dc=com" % i)
            dns.append(dn)
            chain.advance(adds={dn: _entry("name=n%d, dc=com" % i, name="n%d" % i)},
                          deletes=set(), delete_subtrees=set())
        snap = chain.snapshot()
        chain.truncate(4)  # everything folded into the base store
        assert chain.floor_lsn == 4
        # The pre-truncation snapshot still answers from its pinned versions.
        adds, deletes, subtrees = snap.folded()
        assert set(adds) == set(dns)
        assert not deletes and not subtrees
        # New snapshots start empty above the floor.
        fresh = chain.snapshot()
        assert fresh.pending() == 0
        assert fresh.lsn == 4

    def test_truncation_floor_is_monotone(self):
        chain = VersionChain()
        for i in range(3):
            chain.advance(adds={}, deletes={_dn("name=n%d, dc=com" % i)},
                          delete_subtrees=set())
        chain.truncate(2)
        chain.truncate(1)  # lower floor is a no-op, not a regression
        assert chain.floor_lsn == 2
        snap = chain.snapshot()
        assert [v.lsn for v in snap.versions] == [3]


class TestFolding:
    def test_later_add_resurrects_deleted_dn(self):
        chain = VersionChain()
        dn = _dn("name=a, dc=com")
        chain.advance(adds={}, deletes={dn}, delete_subtrees=set())
        chain.advance(adds={dn: _entry("name=a, dc=com", name="a")},
                      deletes=set(), delete_subtrees=set())
        adds, deletes, _ = chain.snapshot().folded()
        assert dn in adds
        assert dn not in deletes

    def test_later_subtree_delete_clears_adds_beneath(self):
        chain = VersionChain()
        root = _dn("o=unit, dc=com")
        child = _dn("name=a, o=unit, dc=com")
        outside = _dn("name=z, dc=com")
        chain.advance(
            adds={
                child: _entry("name=a, o=unit, dc=com", name="a"),
                outside: _entry("name=z, dc=com", name="z"),
            },
            deletes=set(),
            delete_subtrees=set(),
        )
        chain.advance(adds={}, deletes=set(), delete_subtrees={root})
        snap = chain.snapshot()
        adds, _, subtrees = snap.folded()
        assert child not in adds
        assert outside in adds
        assert root in subtrees
        assert snap.is_deleted(child)
        assert not snap.is_deleted(outside)

    def test_overlay_lookup_prefers_newest_version(self):
        chain = VersionChain()
        dn = _dn("name=a, dc=com")
        chain.advance(adds={dn: _entry("name=a, dc=com", name="a")},
                      deletes=set(), delete_subtrees=set())
        chain.advance(adds={dn: _entry("name=a, dc=com", name="a2")},
                      deletes=set(), delete_subtrees=set())
        kind, entry = chain.snapshot().overlay_lookup(dn)
        assert kind == "add"
        assert entry.values("name") == ("a2",)

    def test_folded_returns_defensive_copies(self):
        chain = VersionChain()
        dn = _dn("name=a, dc=com")
        chain.advance(adds={dn: _entry("name=a, dc=com", name="a")},
                      deletes=set(), delete_subtrees=set())
        snap = chain.snapshot()
        adds, deletes, subtrees = snap.folded()
        adds.clear()
        deletes.add(dn)
        adds2, deletes2, _ = snap.folded()
        assert dn in adds2
        assert dn not in deletes2

    def test_pending_counts_all_folded_operations(self):
        chain = VersionChain()
        dn_a = _dn("name=a, dc=com")
        dn_b = _dn("name=b, dc=com")
        chain.advance(adds={dn_a: _entry("name=a, dc=com", name="a")},
                      deletes={dn_b}, delete_subtrees={_dn("o=gone, dc=com")})
        assert chain.snapshot().pending() == 3


class TestPython39Bisect:
    def test_delta_bisects_without_the_key_keyword(self, monkeypatch):
        """``bisect``'s ``key=`` exists only from Python 3.10 and 3.9 is
        supported: the delta must bisect plain tuples.  Swap in 3.9's
        signatures and drive every bisecting path."""
        import bisect

        from repro.txn import mvcc

        def py39(function):
            def without_key(a, x, lo=0, hi=None):
                return function(a, x, lo, len(a) if hi is None else hi)
            return without_key

        for name in ("bisect_left", "bisect_right", "insort"):
            monkeypatch.setattr(mvcc, name, py39(getattr(bisect, name)))

        chain = VersionChain()
        root = _dn("o=unit, dc=com")
        names = ["name=%s, o=unit, dc=com" % n for n in ("b", "a", "ab", "c")]
        for text in names:
            chain.advance(adds={_dn(text): _entry(text, name="x")})
        chain.advance(deletes={_dn(names[0])})
        delta = chain.snapshot().delta
        assert [dn for _, dn in delta.order] == sorted(map(_dn, names))
        assert delta.span(root) == (0, 4)
        assert delta.span(_dn(names[1])) == (0, 1)  # "a" excludes "ab"
        chain.advance(delete_subtrees={root})
        chain.advance(delete_subtrees={_dn(names[3])})  # nested: not kept
        delta = chain.snapshot().delta
        assert not delta.order
        assert [dn for _, dn in delta.roots] == [root]
        assert delta.covering_root(_dn(names[2])) == root
        assert delta.covering_root(_dn("o=other, dc=com")) is None
        assert [dn for _, dn in delta.roots_under(_dn("dc=com"))] == [root]
