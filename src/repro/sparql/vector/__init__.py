"""Columnar (vectorized) SPARQL execution engine — E22.

Selected per query via ``CompileOptions(engine="vector")``; see
:mod:`repro.sparql.vector.engine` for the execution model and the dependent
join that runs correlated OPTIONAL, FILTER and BIND on columns with the
interpreted evaluator's semantics. No module here calls the interpreted
engine.
"""

from repro.sparql.vector.batch import UNBOUND, Batch
from repro.sparql.vector.cost import (
    cost_score,
    estimated_rows,
    free_expression_variables,
    optional_blind_variables,
    order_regions,
    pattern_extent,
)
from repro.sparql.vector.dictionary import ColumnCodec, TermEncoder
from repro.sparql.vector.engine import (
    compile_vector_plan,
    execute_tree,
    finish_select,
)
from repro.sparql.vector.ops import distinct_rows, hash_join, scan_batch

__all__ = [
    "UNBOUND",
    "Batch",
    "ColumnCodec",
    "TermEncoder",
    "compile_vector_plan",
    "cost_score",
    "distinct_rows",
    "estimated_rows",
    "execute_tree",
    "finish_select",
    "free_expression_variables",
    "hash_join",
    "optional_blind_variables",
    "order_regions",
    "pattern_extent",
    "scan_batch",
]
