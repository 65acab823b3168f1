"""Rewrites, access-path planning, EXPLAIN and the planned engine."""

import pytest

from repro.engine import QueryEngine
from repro.engine.optimizer import (
    QERROR_ALERT,
    AccessPlanner,
    PlannedEngine,
    estimate_cardinality,
    explain,
    qerror,
    reorder_operands,
    rewrite,
    route_hints,
)
from repro.filters.ast import Presence
from repro.model.dn import DN
from repro.query.ast import And, AtomicQuery, Diff, HierarchySelect, Or, Scope
from repro.query.parser import parse_query
from repro.query.semantics import evaluate
from repro.storage.store import DirectoryStore
from repro.workload import RandomQueries, balanced_instance, random_instance


@pytest.fixture(scope="module")
def store():
    instance = balanced_instance(2000, fanout=4, seed=3)
    s = DirectoryStore.from_instance(instance, page_size=16, buffer_pages=8)
    s.build_indices(("weight", "name", "kind"))
    return instance, s


class TestRewrites:
    def test_r1_ac_to_p(self):
        query = parse_query(
            "(ac ( ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? objectClass=*))"
        )
        rewritten, rules = rewrite(query)
        assert isinstance(rewritten, HierarchySelect) and rewritten.op == "p"
        assert rewritten.third is None
        assert any("R1" in rule for rule in rules)

    def test_r1_dc_to_c(self):
        query = parse_query(
            "(dc ( ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? objectClass=*))"
        )
        rewritten, _rules = rewrite(query)
        assert rewritten.op == "c"

    def test_r1_preserves_agg_filter(self):
        query = parse_query(
            "(dc ( ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? objectClass=*)"
            " count($2) > 3)"
        )
        rewritten, _rules = rewrite(query)
        assert rewritten.op == "c"
        assert rewritten.agg is not None

    def test_r1_not_applied_to_real_blockers(self):
        query = parse_query(
            "(ac ( ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? kind=gamma))"
        )
        rewritten, rules = rewrite(query)
        assert rewritten.op == "ac"
        assert rules == []

    def test_r2_idempotence(self):
        query = parse_query("(& ( ? sub ? kind=alpha) ( ? sub ? kind=alpha))")
        rewritten, rules = rewrite(query)
        assert isinstance(rewritten, AtomicQuery)
        # Exact duplicates collapse in normalisation (R0); R2 remains for
        # duplicates that only appear after deeper rewrites.
        assert any("R0" in rule or "R2" in rule for rule in rules)

    def test_r3_scope_tightening(self):
        query = parse_query(
            "(& ( ? sub ? kind=alpha) (name=e1, name=e0 ? sub ? weight<50))"
        )
        rewritten, rules = rewrite(query)
        assert any("R3" in rule for rule in rules)
        assert isinstance(rewritten, And)
        assert str(rewritten.left.base) == "name=e1, name=e0"

    def test_r3_not_applied_across_unrelated_bases(self):
        query = parse_query(
            "(& (name=e1, name=e0 ? sub ? kind=alpha)"
            "   (name=e2, name=e0 ? sub ? weight<50))"
        )
        _rewritten, rules = rewrite(query)
        assert not any("R3" in rule for rule in rules)

    @pytest.mark.parametrize("seed", range(8))
    def test_rewrites_preserve_semantics(self, seed):
        instance = random_instance(seed, size=80)
        queries = RandomQueries(instance, seed=seed + 3)
        for _ in range(8):
            query = queries.any_level(depth=2)
            rewritten, _rules = rewrite(query)
            assert [e.dn for e in evaluate(rewritten, instance)] == [
                e.dn for e in evaluate(query, instance)
            ], str(query)


class TestR1WholeInstanceRegression:
    """ISSUE 9 bugfix: the paper-literal third operand can reach the
    optimiser as ``Presence("objectClass")`` (builders, the LDAP
    translation layer, any non-canonical spelling route) and pre-fix
    ``_is_whole_instance`` only accepted ``MatchAll`` -- so the Section
    8.1 rewrite never fired on it."""

    SECTION_8_1 = (
        "(ac ( ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? objectClass=*))"
    )

    def test_literal_section_8_1_string(self):
        rewritten, rules = rewrite(parse_query(self.SECTION_8_1))
        assert rewritten.op == "p" and rewritten.third is None
        assert any("R1" in rule for rule in rules)

    def test_presence_object_class_third_operand(self):
        # The pre-fix miss: an AST-level Presence("objectClass") whole
        # instance (always true by Definition 3.2 (c2)).
        base = parse_query(self.SECTION_8_1)
        query = HierarchySelect(
            "ac",
            base.first,
            base.second,
            AtomicQuery(DN.parse(""), Scope.SUB, Presence("objectClass")),
            None,
        )
        rewritten, rules = rewrite(query)
        assert rewritten.op == "p" and rewritten.third is None
        assert any("R1" in rule for rule in rules)

    def test_lowercase_presence_is_not_whole_instance(self):
        # Presence tests are case-sensitive: objectclass=* names a
        # different (absent) attribute and matches nothing -- rewriting
        # it away would change results.
        query = parse_query(
            "(ac ( ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? objectclass=*))"
        )
        assert isinstance(query.third.filter, Presence)
        rewritten, rules = rewrite(query)
        assert rewritten.op == "ac"
        assert not any("R1" in rule for rule in rules)

    def test_presence_rewrite_preserves_semantics(self):
        instance = random_instance(5, size=80)
        base = parse_query(self.SECTION_8_1)
        query = HierarchySelect(
            "dc",
            base.first,
            base.second,
            AtomicQuery(DN.parse(""), Scope.SUB, Presence("objectClass")),
            None,
        )
        rewritten, _rules = rewrite(query)
        assert rewritten.op == "c"
        assert [e.dn for e in evaluate(rewritten, instance)] == [
            e.dn for e in evaluate(query, instance)
        ]


class TestNewRewrites:
    def test_r4_and_absorbs_whole_instance_cover(self):
        query = parse_query(
            "(& ( ? sub ? objectClass=*) (name=e1, name=e0 ? sub ? kind=alpha))"
        )
        rewritten, rules = rewrite(query)
        assert isinstance(rewritten, AtomicQuery)
        assert str(rewritten.base) == "name=e1, name=e0"
        assert any("R4" in rule for rule in rules)

    def test_r4_or_collapses_to_cover(self):
        query = parse_query(
            "(| ( ? sub ? objectClass=*) (name=e1, name=e0 ? sub ? kind=alpha))"
        )
        rewritten, rules = rewrite(query)
        assert isinstance(rewritten, AtomicQuery)
        assert rewritten.base.is_null()
        assert any("R4" in rule for rule in rules)

    def test_r4_not_applied_when_footprint_escapes(self):
        # The cover's subtree does not contain the other operand.
        query = parse_query(
            "(& (name=e1, name=e0 ? sub ? objectClass=*) ( ? sub ? kind=alpha))"
        )
        _rewritten, rules = rewrite(query)
        assert not any("R4" in rule for rule in rules)

    def test_r5_tightens_diff_right_operand(self):
        query = parse_query(
            "(- (name=e1, name=e0 ? sub ? kind=alpha) ( ? sub ? kind=beta))"
        )
        rewritten, rules = rewrite(query)
        assert isinstance(rewritten, Diff)
        assert str(rewritten.right.base) == "name=e1, name=e0"
        assert any("R5" in rule for rule in rules)

    def test_r5_never_touches_left_operand(self):
        query = parse_query(
            "(- ( ? sub ? kind=beta) (name=e1, name=e0 ? sub ? kind=alpha))"
        )
        rewritten, rules = rewrite(query)
        assert rewritten.left.base.is_null()
        assert not any("R5" in rule for rule in rules)

    @pytest.mark.parametrize("op", ["c", "d", "dc"])
    def test_r6_pushes_scope_into_descendant_operands(self, op):
        third = " (name=e1, name=e0 ? sub ? kind=gamma)" if op == "dc" else ""
        query = parse_query(
            "(%s (name=e1, name=e0 ? sub ? kind=alpha) ( ? sub ? kind=beta)%s)"
            % (op, third)
        )
        rewritten, rules = rewrite(query)
        assert str(rewritten.second.base) == "name=e1, name=e0"
        assert any("R6" in rule for rule in rules)

    @pytest.mark.parametrize("op", ["p", "a", "ac"])
    def test_r6_not_applied_to_ancestor_operators(self, op):
        # Witnesses of p/a/ac are ancestors -- they escape the first
        # operand's subtree, so push-down would lose results.
        third = " (name=e1, name=e0 ? sub ? kind=gamma)" if op == "ac" else ""
        query = parse_query(
            "(%s (name=e1, name=e0 ? sub ? kind=alpha) ( ? sub ? kind=beta)%s)"
            % (op, third)
        )
        rewritten, rules = rewrite(query)
        assert rewritten.second.base.is_null()
        assert not any("R6" in rule for rule in rules)

    @pytest.mark.parametrize("seed", range(6))
    def test_new_rewrites_preserve_semantics(self, seed):
        # Deliberately shaped to hit R4/R5/R6 on random instances.
        instance = random_instance(seed, size=70)
        dns = [entry.dn for entry in instance]
        deep = max(dns, key=lambda dn: len(dn))
        shapes = [
            "(& ( ? sub ? objectClass=*) (%s ? sub ? kind=alpha))" % deep,
            "(| ( ? sub ? objectClass=*) (%s ? sub ? kind=beta))" % deep,
            "(- (%s ? sub ? kind=alpha) ( ? sub ? kind=beta))" % deep,
            "(c (%s ? sub ? kind=alpha) ( ? sub ? weight<50))" % deep,
            "(dc (%s ? sub ? kind=alpha) ( ? sub ? kind=beta) ( ? sub ? weight<50))"
            % deep,
        ]
        for text in shapes:
            query = parse_query(text)
            rewritten, _rules = rewrite(query)
            assert [e.dn for e in evaluate(rewritten, instance)] == [
                e.dn for e in evaluate(query, instance)
            ], text


class TestReorder:
    def test_selective_operand_moves_first(self, store):
        _instance, s = store
        estimator = AccessPlanner(s).estimator
        query = parse_query("(& ( ? sub ? kind=alpha) ( ? sub ? name=e17))")
        notes = []
        ordered = reorder_operands(query, estimator, notes)
        assert str(ordered.left.filter) == "name=e17"
        assert any("R7" in note for note in notes)

    def test_already_ordered_left_alone(self, store):
        _instance, s = store
        estimator = AccessPlanner(s).estimator
        query = parse_query("(& ( ? sub ? name=e17) ( ? sub ? kind=alpha))")
        notes = []
        ordered = reorder_operands(query, estimator, notes)
        assert str(ordered.left.filter) == "name=e17"
        assert notes == []

    def test_diff_never_reordered(self, store):
        _instance, s = store
        estimator = AccessPlanner(s).estimator
        query = parse_query("(- ( ? sub ? kind=alpha) ( ? sub ? name=e17))")
        ordered = reorder_operands(query, estimator, [])
        assert isinstance(ordered, Diff)
        assert str(ordered.left.filter) == "kind=alpha"

    @pytest.mark.parametrize("seed", range(6))
    def test_reorder_preserves_semantics(self, store, seed):
        instance, s = store
        estimator = AccessPlanner(s).estimator
        queries = RandomQueries(instance, seed=seed + 29)
        for _ in range(6):
            query = queries.any_level(depth=2)
            ordered = reorder_operands(query, estimator, [])
            assert [e.dn for e in evaluate(ordered, instance)] == [
                e.dn for e in evaluate(query, instance)
            ], str(query)


class TestShortCircuit:
    def test_empty_first_operand_skips_second(self, store):
        _instance, s = store
        lazy = PlannedEngine(s)
        query = "(& ( ? sub ? name=nosuchentry) ( ? sub ? kind=alpha))"
        # The eager arm: the plan-less engine (both operands always
        # evaluated) running the already-planned query.
        planned, _rules = lazy.plan(query)
        eager_result = QueryEngine(s).run(planned)
        lazy_result = lazy.run(query)
        assert lazy_result.dns() == eager_result.dns() == []
        assert lazy.short_circuits >= 1
        lazy_cost = lazy_result.io.logical_reads + lazy_result.io.logical_writes
        eager_cost = eager_result.io.logical_reads + eager_result.io.logical_writes
        assert lazy_cost < eager_cost

    def test_diff_short_circuits_too(self, store):
        _instance, s = store
        engine = PlannedEngine(s)
        before = engine.short_circuits
        result = engine.run("(- ( ? sub ? name=nosuchentry) ( ? sub ? kind=alpha))")
        assert result.dns() == []
        assert engine.short_circuits > before

    def test_nonempty_first_operand_merges_normally(self, store):
        instance, s = store
        engine = PlannedEngine(s)
        query = parse_query("(& ( ? sub ? kind=alpha) ( ? sub ? weight<50))")
        assert engine.run(query).dns() == [
            str(e.dn) for e in evaluate(query, instance)
        ]


class TestQError:
    def test_symmetric_and_floored(self):
        assert qerror(10, 5) == 2.0
        assert qerror(5, 10) == 2.0
        assert qerror(0, 0) == 1.0
        assert qerror(0, 7) == 7.0

    def test_route_hints_quiet_under_threshold(self):
        leaf = parse_query("( ? sub ? kind=alpha)")
        assert route_hints(leaf, 100, 90) == []

    def test_route_hints_fire_at_alert(self):
        leaf = parse_query("( ? sub ? name=*17*)")
        hints = route_hints(leaf, 400, int(400 / QERROR_ALERT) - 1)
        assert hints and "string index" in hints[0]

    def test_boolean_symptom_routes_to_correlation(self):
        node = parse_query("(& ( ? sub ? kind=alpha) ( ? sub ? weight<50))")
        hints = route_hints(node, 100, 5)
        assert hints and "correlated" in hints[0]

    def test_run_records_run_level_qerror(self, store):
        _instance, s = store
        engine = PlannedEngine(s)
        assert engine.last_qerror is None
        engine.run("( ? sub ? kind=alpha)")
        assert engine.last_qerror is not None and engine.last_qerror >= 1.0

    def test_analyze_reports_per_node_qerror(self, store):
        _instance, s = store
        node = explain(s, parse_query("( ? sub ? kind=alpha)"), analyze=True)
        assert node.qerror is not None
        assert "qerr=" in str(node)

    def test_analyze_observes_histogram(self, store):
        from tests.meter import Meter

        _instance, s = store
        meter = Meter()
        explain(
            s,
            parse_query("(& ( ? sub ? kind=alpha) ( ? sub ? weight<50))"),
            analyze=True,
        )
        # One observation per analyzed operator: the And and two leaves.
        assert meter("repro_planner_qerror") == 3

    def test_estimate_cardinality_matches_explain(self, store):
        _instance, s = store
        planner = AccessPlanner(s)
        query = parse_query("(| ( ? sub ? kind=alpha) ( ? sub ? kind=beta))")
        node = explain(s, query, planner=planner)
        assert node.estimate == estimate_cardinality(query, planner.estimator)


class TestAccessPlanner:
    def test_selective_equality_uses_index(self, store):
        _instance, s = store
        planner = AccessPlanner(s)
        use_index, label, _est = planner.plan_leaf(
            parse_query("( ? sub ? name=e17)")
        )
        assert use_index
        assert "strindex" in label

    def test_unselective_filter_scans(self, store):
        _instance, s = store
        planner = AccessPlanner(s)
        use_index, label, _est = planner.plan_leaf(
            parse_query("( ? sub ? kind=alpha)")
        )
        # ~25% of entries match: fetching one page per match is worse than
        # the clustered scan.
        assert not use_index
        assert "scan" in label

    def test_unindexed_attribute_scans(self, store):
        _instance, s = store
        planner = AccessPlanner(s)
        use_index, _label, _est = planner.plan_leaf(
            parse_query("( ? sub ? level<3)")
        )
        assert not use_index


    def test_scan_estimate_follows_the_scope(self, store):
        # The scan seeks past each child's subtree for ``one`` and reads
        # one page for ``base``; pricing either at the whole subtree range
        # (125 pages here) sent them to an index path they should win.
        instance, s = store
        planner = AccessPlanner(s)
        root = next(iter(instance.roots())).dn
        labels = {}
        for scope in Scope.ALL:
            query = parse_query("(%s ? %s ? kind=alpha)" % (root, scope))
            use_index, labels[scope], _est = planner.plan_leaf(query)
            assert not use_index
            before = s.pager.stats.snapshot()
            PlannedEngine(s, stats=planner.estimator.stats).run(query)
            actual = s.pager.stats.since(before).logical_reads
            estimated = int(labels[scope][len("scan["):].split()[0])
            assert estimated <= s.page_count
            if scope != Scope.SUB:
                assert actual <= 2 * estimated + 2
        assert labels[Scope.BASE] == "scan[1 pages]"
        assert labels[Scope.ONE] == "scan[5 pages]"  # the root + fanout 4
        assert labels[Scope.SUB] == "scan[%d pages]" % s.page_count
        # name=e17 matches one entry: cheaper than the subtree range, not
        # cheaper than the one page a base probe reads.
        sub = parse_query("(%s ? sub ? name=e17)" % root)
        base = parse_query("(%s ? base ? name=e17)" % root)
        assert planner.plan_leaf(sub)[0]
        assert not planner.plan_leaf(base)[0]


class TestPlannedEngine:
    @pytest.mark.parametrize("seed", range(6))
    def test_differential(self, store, seed):
        instance, s = store
        engine = PlannedEngine(s)
        queries = RandomQueries(instance, seed=seed + 11)
        for _ in range(6):
            query = queries.any_level()
            assert engine.run(query).dns() == [
                str(e.dn) for e in evaluate(query, instance)
            ], str(query)

    def test_r1_rewrite_saves_io(self, store):
        _instance, s = store
        planned = PlannedEngine(s)
        unplanned = QueryEngine(s, use_indices=False)
        query = (
            "(ac ( ? sub ? name=e5) ( ? sub ? name=e1) ( ? sub ? objectClass=*))"
        )
        planned_result = planned.run(query)
        unplanned_result = unplanned.run(query)
        assert planned_result.dns() == unplanned_result.dns()
        assert any("R1" in rule for rule in planned.last_rewrites)
        planned_cost = planned_result.io.logical_reads + planned_result.io.logical_writes
        unplanned_cost = (
            unplanned_result.io.logical_reads + unplanned_result.io.logical_writes
        )
        assert planned_cost * 5 < unplanned_cost


class TestExplain:
    def test_tree_shape_and_estimates(self, store):
        _instance, s = store
        node = explain(
            s,
            parse_query(
                "(c ( ? sub ? kind=alpha) ( ? sub ? weight<50) count($2) > 1)"
            ),
        )
        text = str(node)
        assert "hierarchy c +agg" in text
        assert "atomic" in text
        assert "est=" in text

    def test_analyze_adds_actuals(self, store):
        instance, s = store
        query = parse_query("( ? sub ? kind=alpha)")
        node = explain(s, query, analyze=True)
        actual = len(evaluate(query, instance))
        assert node.actual == actual
        assert "actual=%d" % actual in str(node)

    def test_rewrites_reported(self, store):
        _instance, s = store
        node = explain(
            s,
            parse_query(
                "(ac ( ? sub ? kind=alpha) ( ? sub ? kind=beta)"
                " ( ? sub ? objectClass=*))"
            ),
        )
        assert "R1" in str(node)
