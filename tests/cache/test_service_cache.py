"""Cache correctness at the service level.

- differential: a cached service must agree with the definitional
  semantics (``repro.query.semantics``) under interleaved searches,
  updates and compactions -- hits included;
- security: a hit produced under one bound subject must be re-filtered
  for another (the cache stores pre-ACL results).
"""

import random

from repro.model.instance import DirectoryInstance
from repro.model.schema import DirectorySchema
from repro.query.semantics import evaluate
from repro.security import AccessControlList
from repro.server import DirectoryService, ResultCode
from repro.workload import RandomQueries, random_instance


def rebuild(schema, entries_by_dn) -> DirectoryInstance:
    """A fresh logical instance from the mirror dict (parents first)."""
    instance = DirectoryInstance(schema)
    for dn in sorted(entries_by_dn, key=lambda d: d.key()):
        instance.add_entry(entries_by_dn[dn])
    return instance


class TestDifferential:
    def test_interleaved_search_update_compaction(self):
        instance = random_instance(5, size=120)
        schema = instance.schema
        service = DirectoryService(instance, page_size=8)
        mirror = {entry.dn: entry for entry in instance}
        queries = RandomQueries(instance, seed=9)  # one stream: 12 distinct shapes
        pool = [queries.any_level() for _ in range(12)]
        rng = random.Random(17)
        fresh = 0

        for step in range(100):
            query = rng.choice(pool)
            got = service.search(query)
            want = evaluate(query, rebuild(schema, mirror))
            assert got.dns() == [str(e.dn) for e in want], str(query)

            if step % 4 != 3:
                continue
            action = rng.choice(
                ["add", "modify", "delete", "delete-subtree", "re-add", "compact"]
            )
            if action == "add":
                parent = rng.choice(sorted(mirror, key=lambda d: d.key()))
                name = "zz%d" % fresh
                fresh += 1
                dn = parent.child("name=" + name)
                code = service.add(
                    dn, ["node"], name=name, kind="delta",
                    level=rng.randint(0, 9), weight=rng.randint(0, 100),
                )
                assert code == ResultCode.SUCCESS
                mirror[dn] = service.directory.lookup(dn)
            elif action == "modify":
                candidates = [
                    dn for dn, e in mirror.items()
                    if e.classes & {"node", "item"}
                ]
                if not candidates:
                    continue
                dn = rng.choice(sorted(candidates, key=lambda d: d.key()))
                code = service.modify(dn, replace={"weight": [rng.randint(0, 100)]})
                assert code == ResultCode.SUCCESS
                mirror[dn] = service.directory.lookup(dn)
            elif action == "delete":
                leaves = [
                    dn for dn in mirror
                    if not any(dn.is_ancestor_of(other) for other in mirror)
                ]
                if not leaves:
                    continue
                dn = rng.choice(sorted(leaves, key=lambda d: d.key()))
                assert service.delete(dn) == ResultCode.SUCCESS
                del mirror[dn]
            elif action == "delete-subtree":
                inner = [
                    dn for dn in mirror
                    if dn.depth() > 1
                    and any(dn.is_ancestor_of(other) for other in mirror)
                ]
                if not inner:
                    continue
                dn = rng.choice(sorted(inner, key=lambda d: d.key()))
                assert service.delete(dn, recursive=True) == ResultCode.SUCCESS
                for doomed in [d for d in mirror if dn.is_prefix_of(d)]:
                    del mirror[doomed]
            elif action == "re-add":
                leaves = [
                    dn for dn, e in mirror.items()
                    if "node" in e.classes
                    and not any(dn.is_ancestor_of(other) for other in mirror)
                ]
                if not leaves:
                    continue
                dn = rng.choice(sorted(leaves, key=lambda d: d.key()))
                old = mirror[dn]
                assert service.delete(dn) == ResultCode.SUCCESS
                code = service.add(
                    dn, ["node"], name=old.values("name")[0], kind="omega",
                    level=rng.randint(0, 9),
                )
                assert code == ResultCode.SUCCESS
                mirror[dn] = service.directory.lookup(dn)
            else:
                service.directory.compact()

        stats = service.cache_stats
        assert stats.hits > 0, "workload never exercised a cache hit"
        assert stats.patched > 0, "workload never exercised an in-place patch"
        assert stats.invalidations > 0, "workload never exercised the evict fallback"
        cache = service.cache
        assert cache.resident_bytes == sum(r.size_bytes for r in cache)


def make_secured_service() -> DirectoryService:
    schema = DirectorySchema()
    schema.add_attribute("dc", "string")
    schema.add_attribute("uid", "string")
    schema.add_attribute("userPassword", "string")
    schema.add_class("dcObject", {"dc"})
    schema.add_class("account", {"uid", "userPassword"})
    instance = DirectoryInstance(schema)
    instance.add("dc=com", ["dcObject"], dc="com")
    for uid in ("alice", "bob"):
        instance.add(
            "uid=%s, dc=com" % uid, ["account"], uid=uid, userPassword="pw-" + uid
        )
    acl = AccessControlList(default_allow=False)
    acl.allow("uid=alice, dc=com", "dc=com")
    acl.allow("uid=bob, dc=com", "uid=bob, dc=com")
    return DirectoryService(instance, acl=acl, page_size=4)


class TestHitVisibility:
    QUERY = "( ? sub ? objectClass=account)"

    def test_hit_is_refiltered_per_subject(self):
        service = make_secured_service()
        service.bind("uid=alice, dc=com", "pw-alice")
        first = service.search(self.QUERY)
        assert not first.cached
        assert len(first) == 2

        service.bind("uid=bob, dc=com", "pw-bob")
        second = service.search(self.QUERY)
        assert second.cached, "same query should be a cache hit"
        assert second.dns() == ["uid=bob, dc=com"], (
            "alice's bind must not leak into bob's results"
        )
        assert second.total_size == 1  # post-ACL accounting

        service.bind_anonymous()
        third = service.search(self.QUERY)
        assert third.cached
        assert len(third) == 0

    def test_subject_swap_back_still_complete(self):
        # the cache keeps the pre-ACL list, so a later privileged subject
        # sees everything even though a restricted one hit in between
        service = make_secured_service()
        service.bind("uid=bob, dc=com", "pw-bob")
        assert service.search(self.QUERY).dns() == ["uid=bob, dc=com"]
        service.bind("uid=alice, dc=com", "pw-alice")
        again = service.search(self.QUERY)
        assert again.cached
        assert len(again) == 2
