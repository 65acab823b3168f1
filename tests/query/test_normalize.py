"""Query normalisation: canonical forms and semantic preservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.query.normalize import equivalent_modulo_acd, normalize
from repro.query.parser import parse_query
from repro.query.semantics import evaluate
from repro.workload import RandomQueries, random_instance

A = "( ? sub ? kind=alpha)"
B = "( ? sub ? kind=beta)"
C = "( ? sub ? kind=gamma)"


def norm(text):
    return str(normalize(parse_query(text)))


class TestCanonicalForms:
    def test_commutativity(self):
        assert norm("(& %s %s)" % (A, B)) == norm("(& %s %s)" % (B, A))
        assert norm("(| %s %s)" % (A, B)) == norm("(| %s %s)" % (B, A))

    def test_associativity(self):
        left = "(& (& %s %s) %s)" % (A, B, C)
        right = "(& %s (& %s %s))" % (A, B, C)
        assert norm(left) == norm(right)

    def test_idempotence_with_commuted_duplicates(self):
        doubled = "(& (& %s %s) (& %s %s))" % (A, B, B, A)
        assert norm(doubled) == norm("(& %s %s)" % (A, B))

    def test_difference_not_commuted(self):
        assert norm("(- %s %s)" % (A, B)) != norm("(- %s %s)" % (B, A))

    def test_mixed_operators_not_flattened_together(self):
        # (& A (| B C)) stays structurally an and-over-or.
        text = "(& %s (| %s %s))" % (A, B, C)
        assert "(|" in norm(text)

    def test_normalises_inside_operators(self):
        hier = "(c (& %s %s) (& %s %s))" % (B, A, A, B)
        normalized = normalize(parse_query(hier))
        assert str(normalized.first) == str(normalized.second)

    def test_equivalence_predicate(self):
        assert equivalent_modulo_acd(
            parse_query("(& %s %s)" % (A, B)), parse_query("(& %s %s)" % (B, A))
        )
        assert not equivalent_modulo_acd(
            parse_query("(& %s %s)" % (A, B)), parse_query("(| %s %s)" % (A, B))
        )


class TestSemanticsPreserved:
    @given(st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_normalize_preserves_answers(self, instance_seed, query_seed):
        instance = random_instance(instance_seed, size=40)
        query = RandomQueries(instance, seed=query_seed).any_level(depth=2)
        assert [e.dn for e in evaluate(normalize(query), instance)] == [
            e.dn for e in evaluate(query, instance)
        ], str(query)

    def test_rewrite_pipeline_catches_commuted_duplicates(self):
        from repro.engine.optimizer import rewrite

        doubled = parse_query("(& (& %s %s) (& %s %s))" % (A, B, B, A))
        rewritten, rules = rewrite(doubled)
        assert any("R0" in rule for rule in rules)
        # After normalisation the two operands are identical and R2 fires.
        assert str(rewritten) == norm("(& %s %s)" % (A, B))


class TestOneRebuildPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_normalize_is_idempotent(self, seed):
        queries = RandomQueries(random_instance(seed, size=30), seed=seed)
        for make in (queries.l0, queries.l1, queries.l2, queries.l3):
            once = normalize(make(2))
            assert normalize(once) == once and str(normalize(once)) == str(once)

    @pytest.mark.parametrize("seed", range(6))
    def test_reorder_folds_the_estimate_of_its_result(self, seed):
        from repro.engine.optimizer import _reorder, estimate_cardinality
        from repro.engine.stats import CardinalityEstimator
        from repro.storage.store import DirectoryStore

        instance = random_instance(seed, size=60)
        estimator = CardinalityEstimator(DirectoryStore.from_instance(instance))
        queries = RandomQueries(instance, seed=seed)
        for make in (queries.l0, queries.l1, queries.l2, queries.l3):
            query = make(2)
            ordered, estimate = _reorder(query, estimator, [])
            assert estimate == estimate_cardinality(ordered, estimator)
