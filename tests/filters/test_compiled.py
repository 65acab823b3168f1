"""Compiled filters: ``f.page_form(schema)(page)`` keeps exactly the
entries of ``page`` that ``f.matches(e, schema)`` keeps, and
``f.predicate(schema)(e) == f.matches(e, schema)``.

Every leaf path of the engine (the clustered scan, the index fetch, the
window scan and the shared scan) tests a page of entries at a time
through the page form a filter compiles once per scan; the definitional
semantics tests them through :meth:`~repro.filters.ast.Filter.matches`.
This suite holds the two to each other over every filter class, nested
``&``/``|``/``!``
included, over values of every shape an entry may carry -- ``str``,
``int``, ``bool``, an ``int`` subclass, ``DN``, and strings that fail
the int or the dn coercion -- and with the schema absent, declaring each
attribute's type, and declaring the wrong type.  Both sides must also
count the same ``repro_filter_eval_errors_total`` increments: a closure
that skips a coercion (or makes one twice) is as wrong as one that
answers differently.

CI repeats this module in the planner-differential job.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.filters.ast import (
    Comparison,
    Equality,
    FilterAnd,
    FilterNot,
    FilterOr,
    MatchAll,
    Presence,
    Substring,
)
from repro.model.dn import DN
from repro.model.entry import Entry
from repro.model.schema import DirectorySchema
from repro.obs.metrics import get_registry

ATTRIBUTES = ("s", "n", "r")
ERROR_KINDS = ("dn-coerce", "int-coerce")


class Count(int):
    """An ``int`` subclass: neither an exact int nor a bool."""


def schema_of(types):
    schema = DirectorySchema()
    for attribute, type_name in types.items():
        schema.add_attribute(attribute, type_name)
    schema.add_class("node", set(types))
    return schema


#: No schema; each attribute declared with its type; each declared with a
#: wrong one; and one attribute left undeclared.
SCHEMAS = [
    None,
    schema_of({"s": "string", "n": "int", "r": "distinguishedName"}),
    schema_of({"s": "int", "n": "distinguishedName", "r": "string"}),
    schema_of({"s": "string", "n": "int"}),
]

# Small domains, so that a value and a constant often meet in each of
# the comparisons the filters make (``True`` against ``1``, ``" 1 "``
# against ``1``, a dn against its other spelling).
texts = st.sampled_from(["", "a", "1", "a1", "1\n", "\na", " 1 ", "x1", "no dn"])
dns = st.sampled_from(["cn=a, dc=com", "dc=com"]).map(DN.parse)
ints = st.integers(-1, 2)
values = st.one_of(
    texts, ints, st.booleans(), ints.map(Count), dns, st.just("cn=a,dc=com")
)
constants = st.one_of(texts, ints, st.booleans(), dns, st.just("cn=a,dc=com"))
attributes = st.sampled_from(ATTRIBUTES)
patterns = st.lists(st.sampled_from(["a", "1", "\n", ""]), min_size=2, max_size=4).map(
    "*".join
)
simple_filters = st.one_of(
    st.just(MatchAll()),
    st.builds(Presence, attributes),
    st.builds(Equality, attributes, constants),
    st.builds(Substring, attributes, patterns),
    st.builds(Comparison, attributes, st.sampled_from(["<", "<=", ">", ">="]), ints),
)
filters = st.recursive(
    simple_filters,
    lambda operands: st.one_of(
        st.builds(FilterAnd, st.lists(operands, min_size=1, max_size=3)),
        st.builds(FilterOr, st.lists(operands, min_size=1, max_size=3)),
        st.builds(FilterNot, operands),
    ),
    max_leaves=6,
)
entries = st.fixed_dictionaries(
    {attribute: st.lists(values, max_size=3) for attribute in ATTRIBUTES}
).map(lambda attrs: Entry(DN.parse("cn=x, dc=com"), ["node"], attrs))


def errors():
    counter = get_registry().get("repro_filter_eval_errors_total")
    return tuple(counter.value(kind=kind) if counter else 0 for kind in ERROR_KINDS)


def counted(run):
    """``run()``'s result and the evaluation errors it counted, per kind."""
    before = errors()
    result = run()
    return result, tuple(after - was for after, was in zip(errors(), before))


def node(**attrs):
    return Entry(DN.parse("cn=x, dc=com"), ["node"], attrs)


@settings(max_examples=500, deadline=None)
@given(filters, st.lists(entries, min_size=1, max_size=4))
# Each type guard, pinned: a bool is not the int it equals, an int does
# not take a substring, a failed coercion is counted once per value.
@example(Equality("n", 1), [node(n=[True]), node(n=[Count(1)])])
@example(Comparison("n", ">", 0), [node(n=[True]), node(n=[Count(1)])])
@example(Substring("s", "1*"), [node(s=[1]), node(s=[True])])
@example(Equality("s", "x1"), [node(s=[1, 2])])
@example(Equality("r", "no dn"), [node(r=[DN.parse("dc=com"), "dc=com"])])
@example(FilterNot(Equality("r", DN.parse("dc=com"))), [node(r=["no dn", 1])])
def test_predicate_equals_matches(filter_, batch):
    for schema in SCHEMAS:
        compiled, compiled_errors = counted(
            lambda: list(map(filter_.predicate(schema), batch))
        )
        walked, walked_errors = counted(
            lambda: [filter_.matches(entry, schema) for entry in batch]
        )
        context = (str(filter_), schema)
        assert compiled == walked, context
        assert compiled_errors == walked_errors, context


@settings(max_examples=500, deadline=None)
@given(filters, st.lists(entries, max_size=6))
@example(Equality("n", 1), [node(n=[True]), node(n=[Count(1)]), node(n=[1])])
@example(FilterOr([Equality("r", "no dn"), Equality("n", "x")]), [node(r=["x", 1], n=[1])])
@example(FilterAnd([Equality("n", "x"), Equality("r", "no dn")]), [node(r=["x"], n=["1"])])
@example(FilterNot(FilterOr([Presence("s"), Equality("r", "dc=com")])), [node(s=["a"]), node(r=["x"])])
def test_page_form_equals_matches(filter_, page):
    """A page in, the matching entries out, in page order, as a new list
    -- the input (a pager's page) untouched -- with the same evaluation
    errors counted as the per-entry walk."""
    for schema in SCHEMAS:
        original = list(page)
        kept, page_errors = counted(lambda: filter_.page_form(schema)(page))
        walked, walked_errors = counted(
            lambda: [entry for entry in page if filter_.matches(entry, schema)]
        )
        context = (str(filter_), schema)
        assert [id(entry) for entry in kept] == [id(entry) for entry in walked], context
        assert kept is not page and list(map(id, page)) == list(map(id, original)), context
        assert page_errors == walked_errors, context


def test_one_predicate_serves_many_entries():
    # The closure holds no per-entry state: a compiled filter reused over
    # a stream answers each entry as a fresh one would.
    schema = SCHEMAS[1]
    filter_ = FilterOr([Equality("n", "2"), Substring("s", "*b")])
    test = filter_.predicate(schema)
    batch = [node(n=[2]), node(s=["ab"]), node(n=[3], s=["ba"]), node()]
    assert [test(entry) for entry in batch] == [True, True, False, False]


def test_a_mistyped_attribute_compiles_to_constant_false():
    wrong = SCHEMAS[2]
    anything = node(s=["ab"], n=[1])
    assert not Substring("s", "*").predicate(wrong)(anything)
    assert not Comparison("n", ">=", 0).predicate(wrong)(anything)
    assert Substring("s", "*").predicate(None)(anything)
    assert Comparison("n", ">=", 0).predicate(None)(anything)
