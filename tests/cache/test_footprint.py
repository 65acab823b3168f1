"""Static read footprints: ranges, closures and the coverage tests.

Coverage is asked of the cache's prefix index in the program; here it is
asked of one footprint through the linear-walk oracle the index is held
to (``tests/cache/test_prefix_index.py``)."""

from repro.cache import Footprint, query_footprint
from repro.model.dn import DN, ROOT_DN
from repro.query.parser import parse_query

from tests.cache.test_prefix_index import covers, intersects_subtree


COM = DN.parse("dc=com")
ATT = DN.parse("dc=att, dc=com")
RESEARCH = DN.parse("dc=research, dc=att, dc=com")
ORG = DN.parse("dc=org")


class TestFootprintAlgebra:
    def test_point_covers_only_itself(self):
        fp = Footprint.point(ATT)
        assert covers(fp, ATT)
        assert not covers(fp, COM)
        assert not covers(fp, RESEARCH)

    def test_subtree_covers_descendants(self):
        fp = Footprint.subtree(ATT)
        assert covers(fp, ATT)
        assert covers(fp, RESEARCH)
        assert not covers(fp, COM)
        assert not covers(fp, ORG)

    def test_everything(self):
        fp = Footprint.everything()
        for dn in (ROOT_DN, COM, RESEARCH, ORG):
            assert covers(fp, dn)

    def test_union_and_prune(self):
        fp = Footprint.subtree(COM) | Footprint.point(RESEARCH)
        # the point under dc=com is subsumed by the subtree range
        assert len(fp) == 1
        assert covers(fp, RESEARCH)

    def test_nested_subtrees_prune(self):
        fp = Footprint.subtree(COM) | Footprint.subtree(ATT)
        assert len(fp) == 1

    def test_intersects_subtree(self):
        fp = Footprint.point(RESEARCH)
        # deleting the subtree at dc=att wipes the point inside it
        assert intersects_subtree(fp, ATT)
        assert not intersects_subtree(fp, ORG)
        # a subtree range intersects an updated region containing it ...
        assert intersects_subtree(Footprint.subtree(ATT), COM)
        # ... and one inside it
        assert intersects_subtree(Footprint.subtree(COM), ATT)

    def test_ancestor_closure_adds_chain_points(self):
        fp = Footprint.subtree(RESEARCH).ancestor_closure()
        assert covers(fp, ATT)
        assert covers(fp, COM)
        assert not covers(fp, ORG)

    def test_descendant_closure_widens_points(self):
        fp = Footprint.point(ATT).descendant_closure()
        assert covers(fp, RESEARCH)
        assert not covers(fp, COM)


class TestQueryFootprint:
    def test_atomic_base_scope_is_point(self):
        fp = query_footprint(parse_query("(dc=att, dc=com ? base ? a=*)"))
        assert covers(fp, ATT)
        assert not covers(fp, RESEARCH)

    def test_atomic_sub_scope_is_subtree(self):
        fp = query_footprint(parse_query("(dc=att, dc=com ? sub ? a=*)"))
        assert covers(fp, RESEARCH)
        assert not covers(fp, COM)

    def test_atomic_one_scope_conservative_subtree(self):
        fp = query_footprint(parse_query("(dc=com ? one ? a=*)"))
        assert covers(fp, ATT)
        assert covers(fp, RESEARCH)  # conservative over-approximation

    def test_boolean_union(self):
        fp = query_footprint(
            parse_query("(| (dc=att, dc=com ? sub ? a=*) (dc=org ? base ? a=*))")
        )
        assert covers(fp, RESEARCH)
        assert covers(fp, ORG)
        assert not covers(fp, COM)

    def test_ancestor_operator_widens_upward(self):
        # (a Q1 Q2): ancestors outside the operand subtrees can matter
        fp = query_footprint(
            parse_query(
                "(a (dc=research, dc=att, dc=com ? sub ? a=*)"
                "   (dc=research, dc=att, dc=com ? sub ? b=*))"
            )
        )
        assert covers(fp, ATT)
        assert covers(fp, COM)
        assert not covers(fp, ORG)

    def test_descendant_operator_widens_downward(self):
        fp = query_footprint(
            parse_query("(d (dc=com ? base ? a=*) (dc=com ? base ? b=*))")
        )
        assert covers(fp, RESEARCH)

    def test_aggregate_variant_takes_both_closures(self):
        fp = query_footprint(
            parse_query(
                "(p (dc=att, dc=com ? base ? a=*) (dc=att, dc=com ? base ? b=*)"
                " count($2) > 1)"
            )
        )
        assert covers(fp, COM)       # ancestor closure
        assert covers(fp, RESEARCH)  # descendant closure

    def test_simple_agg_keeps_operand_footprint(self):
        fp = query_footprint(
            parse_query("(g (dc=att, dc=com ? sub ? a=*) count($1.a) > 0)")
        )
        assert covers(fp, RESEARCH)
        assert not covers(fp, ORG)

    def test_embedded_ref_widens_to_everything(self):
        fp = query_footprint(
            parse_query(
                "(vd (dc=att, dc=com ? sub ? a=*) (dc=att, dc=com ? sub ? b=*) ref)"
            )
        )
        assert covers(fp, ORG)  # refs may point anywhere
