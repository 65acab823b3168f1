"""Surfaced evaluation errors: unparseable embedded references and
filter coercion failures used to be swallowed by bare ``except`` blocks
and silently shrink the answer.  Now they are *counted* -- on the Run,
the QueryResult, EXPLAIN ``--analyze`` output and the
``repro_filter_eval_errors_total`` metric -- while the answer itself
still contains every entry that can be evaluated."""

import pytest

from repro.engine import QueryEngine
from repro.engine.eragg import embedded_ref_select
from repro.engine.optimizer import PlannedEngine, explain
from repro.filters.ast import Equality
from repro.model.dn import DN
from repro.model.entry import Entry
from repro.model.instance import DirectoryInstance
from repro.model.schema import DirectorySchema
from repro.obs.metrics import get_registry
from repro.query.parser import parse_query
from repro.storage.store import DirectoryStore

from .conftest import sorted_run

BAD_REF = "not a dn !!"


def _entry(name, refs=()):
    return Entry(
        DN.parse("name=%s, dc=com" % name), ["node"], {"ref": list(refs)}
    )


class TestEmbeddedRefSkipCounting:
    """The operator counts every unparseable reference it had to skip."""

    @pytest.mark.parametrize("op", ["vd", "dv"])
    def test_bad_values_are_counted_not_fatal(self, op, pager):
        first = [
            _entry("a", [BAD_REF, "name=w, dc=com"]),
            _entry("b", ["name=w, dc=com"]),
        ]
        second = [_entry("w", [BAD_REF, "name=b, dc=com"])]
        out = embedded_ref_select(
            pager, op, sorted_run(pager, first), sorted_run(pager, second), "ref"
        )
        try:
            # vd scans first's refs (one bad value); dv scans second's
            # refs (also one bad value).  Either way the answer keeps the
            # entries whose *good* references match.
            assert out.eval_errors == 1
            dns = [e.dn for e in out.to_list()]
            if op == "vd":
                assert dns == [e.dn for e in first]
            else:
                assert dns == [first[1].dn]
        finally:
            out.free()

    def test_clean_references_count_zero(self, pager):
        first = [_entry("a", ["name=w, dc=com"])]
        second = [_entry("w")]
        out = embedded_ref_select(
            pager, "vd", sorted_run(pager, first), sorted_run(pager, second), "ref"
        )
        try:
            assert out.eval_errors == 0
        finally:
            out.free()


@pytest.fixture
def ref_instance():
    schema = DirectorySchema()
    schema.add_attribute("dc", "string")
    schema.add_attribute("cn", "string")
    schema.add_attribute("ref", "string")  # string: garbage is storable
    schema.add_class("dcObject", {"dc"})
    schema.add_class("person", {"cn", "ref"})
    instance = DirectoryInstance(schema)
    instance.add("dc=com", ["dcObject"], dc="com")
    instance.add("cn=target, dc=com", ["person"], cn="target")
    instance.add(
        "cn=good, dc=com", ["person"], cn="good", ref="cn=target, dc=com"
    )
    instance.add("cn=bad, dc=com", ["person"], cn="bad", ref=BAD_REF)
    return instance


ER_QUERY = "(vd ( ? sub ? cn=*) ( ? sub ? cn=target) ref)"


class TestQueryResultSurface:
    """The counts ride up to the user-facing result and EXPLAIN."""

    def test_engine_run_reports_eval_errors(self, ref_instance):
        engine = QueryEngine.from_instance(ref_instance, page_size=8)
        result = engine.run(ER_QUERY)
        assert result.eval_errors == 1
        assert [str(e.dn) for e in result] == ["cn=good, dc=com"]

    def test_a_decided_node_counts_its_operand_once(self, ref_instance):
        # The vd comes back empty with one skipped reference and decides
        # the &: the count is the operand's, not the operand's twice.
        query = "(& (vd ( ? sub ? cn=bad) ( ? sub ? cn=target) ref) ( ? sub ? cn=*))"
        store = DirectoryStore.from_instance(ref_instance, page_size=8)
        planned = PlannedEngine(store)
        result = planned.run(query)
        assert planned.short_circuits == 1
        assert result.dns() == [] and result.eval_errors == 1
        assert QueryEngine(store).run(query).eval_errors == 1

    def test_explain_analyze_shows_eval_errors(self, ref_instance):
        store = DirectoryStore.from_instance(
            ref_instance, page_size=8, buffer_pages=8
        )
        node = explain(store, parse_query(ER_QUERY), analyze=True)
        assert "eval_errors=1" in node.render()

        def total(tree):
            return tree.get("eval_errors", 0) + sum(
                total(child) for child in tree["children"]
            )

        assert total(node.as_dict()) == 1


def coercion_errors(kind):
    counter = get_registry().get("repro_filter_eval_errors_total")
    return counter.value(kind=kind) if counter is not None else 0


class TestFilterCoercionCounter:
    """Absorbed coercion failures increment the labelled metric in the
    process registry."""

    def test_dn_coercion_failure_is_counted(self):
        bearer = Entry(
            DN.parse("cn=x, dc=com"), ["node"], {"ref": [DN.parse("cn=y, dc=com")]}
        )
        before = coercion_errors("dn-coerce")
        assert not Equality("ref", BAD_REF).matches(bearer)
        assert coercion_errors("dn-coerce") - before == 1

    def test_int_coercion_failure_is_counted(self):
        bearer = Entry(DN.parse("cn=x, dc=com"), ["node"], {"n": [5]})
        before = coercion_errors("int-coerce")
        assert not Equality("n", "abc").matches(bearer)
        assert coercion_errors("int-coerce") - before == 1

    def test_successful_comparisons_count_nothing(self):
        bearer = Entry(
            DN.parse("cn=x, dc=com"),
            ["node"],
            {"ref": [DN.parse("cn=y, dc=com")], "n": [5]},
        )
        kinds = ("dn-coerce", "int-coerce")
        before = [coercion_errors(kind) for kind in kinds]
        assert Equality("ref", "cn=y, dc=com").matches(bearer)
        assert Equality("n", "5").matches(bearer)
        assert [coercion_errors(kind) for kind in kinds] == before
