"""External-memory query evaluation (Sections 4.2, 5.3, 6.3, 6.4, 7.2, 8.2)."""

from .atomic import evaluate_atomic, scope_admits
from .common import SpillList, labeled_merge, witness_terms_of
from .engine import QueryEngine, QueryResult
from .eragg import embedded_ref_select
from .hsagg import hierarchical_select
from .merge import boolean_merge
from .naive import naive_embedded_ref_select, naive_hierarchical_select
from .optimizer import AccessPlanner, PlannedEngine, explain, rewrite
from .stats import CardinalityEstimator, DirectoryStatistics
from .selection import select_annotated
from .simpleagg import simple_agg_select
from .stackjoin import hierarchical_annotate

__all__ = [
    "evaluate_atomic",
    "scope_admits",
    "SpillList",
    "labeled_merge",
    "witness_terms_of",
    "QueryEngine",
    "QueryResult",
    "embedded_ref_select",
    "hierarchical_select",
    "boolean_merge",
    "naive_embedded_ref_select",
    "naive_hierarchical_select",
    "AccessPlanner",
    "PlannedEngine",
    "explain",
    "rewrite",
    "CardinalityEstimator",
    "DirectoryStatistics",
    "select_annotated",
    "simple_agg_select",
    "hierarchical_annotate",
]
