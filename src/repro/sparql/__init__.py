"""SPARQL-subset query engine.

Implements the portion of SPARQL 1.1 the ExtremeEarth stack needs:

* ``SELECT [DISTINCT] ... WHERE { ... }`` with basic graph patterns
* ``FILTER`` with comparison, arithmetic, boolean operators and function calls
  (including the GeoSPARQL ``geof:`` functions registered by
  :mod:`repro.geosparql`)
* ``OPTIONAL`` (left join), ``UNION``
* ``PREFIX`` declarations, ``ORDER BY``, ``LIMIT``, ``OFFSET``
* aggregate queries: ``COUNT`` (with ``GROUP BY``)

The engine compiles queries to a small logical algebra
(:mod:`repro.sparql.algebra`), applies filter pushdown and
selectivity-ordered joins, and evaluates with an iterator model over
:class:`repro.rdf.Graph`. Passing ``CompileOptions(engine="vector")`` to
:func:`evaluate` selects the columnar engine (:mod:`repro.sparql.vector`)
instead: numpy id-column execution with cost-based join ordering, identical
solution multisets. Every entry point runs the one parse -> plan -> run ->
finish path in :mod:`repro.sparql.pipeline`.

``evaluate(..., budget=QueryBudget(...))`` attaches the E23 resource
governor (:mod:`repro.sparql.governor`): a per-query deadline, resident
row/byte caps and a cooperative :class:`~repro.sparql.governor.CancelToken`,
enforced at checkpoints inside both engines.

``DistRuntime(graph, ...).query(text)`` runs the vector plans distributed
over a range-partitioned, replicated simulated cluster with crash recovery,
speculation and replica failover (:mod:`repro.sparql.dist`, experiment
E25) — same multisets again, or a typed retryable
:class:`~repro.errors.PartitionUnavailable`.
"""

from repro.sparql.algebra import CompileOptions
from repro.sparql.ast import SelectQuery, Variable
from repro.sparql.governor import (
    BudgetPolicy,
    CancelToken,
    QueryBudget,
)
from repro.sparql.parser import parse_query
from repro.sparql.evaluator import (
    Bindings,
    ExecContext,
    FunctionRegistry,
    apply_solution_modifiers,
    materialize_select,
)
from repro.sparql.pipeline import evaluate

__all__ = [
    "Bindings",
    "BudgetPolicy",
    "CancelToken",
    "CompileOptions",
    "ExecContext",
    "FunctionRegistry",
    "QueryBudget",
    "SelectQuery",
    "Variable",
    "apply_solution_modifiers",
    "evaluate",
    "materialize_select",
    "parse_query",
]
