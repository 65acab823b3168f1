"""Atomic filter semantics (Section 4.1) and LDAP boolean combinations."""

import pytest

from repro.filters.ast import (
    Comparison,
    Equality,
    FilterAnd,
    FilterError,
    FilterNot,
    FilterOr,
    MatchAll,
    Presence,
    Substring,
)
from repro.model.dn import DN
from repro.model.entry import Entry
from repro.model.schema import DirectorySchema


@pytest.fixture
def schema():
    s = DirectorySchema()
    s.add_attribute("cn", "string")
    s.add_attribute("n", "int")
    s.add_attribute("ref", "distinguishedName")
    s.add_class("person", {"cn", "n", "ref"})
    return s


def entry(**values):
    return Entry(DN.parse("cn=x, dc=com"), ["person"], values)


class TestPresence:
    def test_present(self):
        assert Presence("cn").matches(entry(cn=["x"]))
        assert not Presence("cn").matches(entry(n=[1]))


class TestMatchAll:
    def test_always(self):
        assert MatchAll().matches(entry())
        assert str(MatchAll()) == "objectClass=*"


class TestEquality:
    def test_string(self):
        assert Equality("cn", "x").matches(entry(cn=["x", "y"]))
        assert not Equality("cn", "z").matches(entry(cn=["x", "y"]))

    def test_int_value_from_string_target(self):
        assert Equality("n", "5").matches(entry(n=[5]))
        assert not Equality("n", "6").matches(entry(n=[5]))
        assert not Equality("n", "abc").matches(entry(n=[5]))

    def test_dn_valued(self):
        target = DN.parse("dc=att, dc=com")
        e = entry(ref=[target])
        assert Equality("ref", "dc=att, dc=com").matches(e)
        assert Equality("ref", target).matches(e)
        assert not Equality("ref", "dc=other").matches(e)

    def test_exists_semantics_any_value(self):
        # r |= F iff at least ONE pair satisfies F.
        assert Equality("cn", "b").matches(entry(cn=["a", "b", "c"]))


class TestSubstring:
    def test_contains(self):
        assert Substring("cn", "*ag*").matches(entry(cn=["jagadish"]))
        assert not Substring("cn", "*zz*").matches(entry(cn=["jagadish"]))

    def test_prefix_suffix(self):
        assert Substring("cn", "jag*").matches(entry(cn=["jagadish"]))
        assert Substring("cn", "*dish").matches(entry(cn=["jagadish"]))
        assert not Substring("cn", "dish*").matches(entry(cn=["jagadish"]))

    def test_multi_segment(self):
        assert Substring("cn", "j*d*h").matches(entry(cn=["jagadish"]))

    def test_requires_wildcard(self):
        with pytest.raises(FilterError):
            Substring("cn", "jag")

    def test_type_gate(self, schema):
        # tau(a) = string is required: an int attribute never matches.
        assert not Substring("n", "*5*").matches(entry(n=[55]), schema)

    def test_regex_metachars_are_literal(self):
        assert Substring("cn", "*a.c*").matches(entry(cn=["xa.cy"]))
        assert not Substring("cn", "*a.c*").matches(entry(cn=["xabcy"]))

    @pytest.mark.parametrize("pattern, value, expected", [
        ("*x*", "line1\nline2x", True),
        ("*2x", "line1\nline2x", True),
        ("*c", "abc\n", False),
    ])
    def test_values_with_newlines(self, schema, pattern, value, expected):
        # LDIF carries newlines through base64: ``*`` spans them, and the
        # pattern must cover the whole value, a trailing newline included.
        for against in (None, schema):
            assert Substring("cn", pattern).matches(entry(cn=[value]), against) is expected
            assert Substring("cn", pattern).predicate(against)(entry(cn=[value])) is expected


class TestComparison:
    def test_all_operators(self):
        e = entry(n=[5])
        assert Comparison("n", "<", 6).matches(e)
        assert Comparison("n", "<=", 5).matches(e)
        assert Comparison("n", ">", 4).matches(e)
        assert Comparison("n", ">=", 5).matches(e)
        assert not Comparison("n", "<", 5).matches(e)

    def test_any_value_suffices(self):
        assert Comparison("n", "<", 3).matches(entry(n=[10, 1]))

    def test_non_int_values_ignored(self, schema):
        assert not Comparison("cn", "<", 3).matches(entry(cn=["abc"]), schema)

    def test_bad_operator(self):
        with pytest.raises(FilterError):
            Comparison("n", "==", 3)

    def test_bad_bound(self):
        with pytest.raises(FilterError):
            Comparison("n", "<", "many")


class TestBoolean:
    def test_and_or_not(self):
        e = entry(cn=["x"], n=[5])
        assert FilterAnd([Presence("cn"), Comparison("n", "<", 6)]).matches(e)
        assert not FilterAnd([Presence("cn"), Comparison("n", ">", 6)]).matches(e)
        assert FilterOr([Presence("zz"), Presence("cn")]).matches(e)
        assert FilterNot(Presence("zz")).matches(e)

    def test_empty_operands_rejected(self):
        with pytest.raises(FilterError):
            FilterAnd([])
        with pytest.raises(FilterError):
            FilterOr([])

    def test_str_forms(self):
        f = FilterAnd([Presence("cn"), FilterNot(Equality("n", 3))])
        assert str(f) == "(&(cn=*)(!(n=3)))"
