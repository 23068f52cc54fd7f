"""Cost-based join ordering fed by O(1) index cardinality statistics.

The interpreted algebra orders BGP patterns with a shape-rank heuristic
(bound-position shapes, plus one predicate-count probe). With the E22 count
fix, :meth:`repro.rdf.graph.Graph.count` answers *every* pattern shape from
index bucket sizes, so the vector engine can replace the heuristic with real
cardinalities:

* the base cost of a pattern is its **exact** extent (count with variables
  wildcarded);
* a variable position already bound upstream divides the estimate by the
  number of distinct terms in that position (classic independence
  assumption), modelling the hash join's selectivity;
* ordering is greedy smallest-estimate-first among patterns connected to
  what has been joined, with the original pattern index as the deterministic
  tie-break.

The rewrite only touches pure scan/join/filter regions — exactly the shape
:func:`repro.sparql.algebra.compile_group` emits for a BGP with pushed
filters — and re-pushes the filters afterwards; OPTIONAL/UNION/BIND
boundaries and VALUES tables (the GeoStore's spatial candidates among them)
are left untouched and recursed into.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.rdf.graph import Graph
from repro.sparql.algebra import (
    AlgebraOp,
    EmptyOp,
    ExtendOp,
    FilterOp,
    JoinOp,
    LeftJoinOp,
    ScanOp,
    TableOp,
    UnionOp,
    _push_filter,
    expression_variables,
    operator_variables,
)
from repro.sparql.ast import Expression, TriplePattern, Variable


def pattern_extent(pattern: TriplePattern, graph: Graph) -> int:
    """Exact number of triples matching the pattern's constant shape (O(1))."""
    query = tuple(
        None if isinstance(position, Variable) else position
        for position in (pattern.subject, pattern.predicate, pattern.object)
    )
    return graph.count(query)  # type: ignore[arg-type]


def estimated_rows(
    pattern: TriplePattern, graph: Graph, bound: Set[Variable]
) -> float:
    """Estimated output rows per upstream row, given already-bound variables."""
    estimate = float(pattern_extent(pattern, graph))
    divisors = (
        (pattern.subject, graph.distinct_subjects()),
        (pattern.predicate, graph.distinct_predicates()),
        (pattern.object, graph.distinct_objects()),
    )
    for position, distinct in divisors:
        if isinstance(position, Variable) and position in bound:
            estimate /= max(distinct, 1)
    return estimate


def order_patterns_by_cost(
    patterns: Sequence[TriplePattern],
    graph: Graph,
    bound_vars: Optional[Set[Variable]] = None,
) -> List[TriplePattern]:
    """Greedy cheapest-first join order, preferring connected patterns."""
    remaining = list(enumerate(patterns))
    ordered: List[TriplePattern] = []
    bound: Set[Variable] = set(bound_vars or ())
    while remaining:
        def score(item: Tuple[int, TriplePattern]) -> Tuple[int, float, int]:
            index, pattern = item
            connected = any(v in bound for v in pattern.variables())
            return (
                0 if connected or not bound else 1,
                estimated_rows(pattern, graph, bound),
                index,
            )

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best[1])
        bound.update(best[1].variables())
    return ordered


# ---------------------------------------------------------------------------
# Plan rewrite
# ---------------------------------------------------------------------------

def _collect_region(
    op: AlgebraOp, scans: List[ScanOp], filters: List[Expression]
) -> bool:
    """Collect a pure scan/join/filter region; False if anything else occurs."""
    if isinstance(op, ScanOp):
        scans.append(op)
        return True
    if isinstance(op, JoinOp):
        return _collect_region(op.left, scans, filters) and _collect_region(
            op.right, scans, filters
        )
    if isinstance(op, FilterOp):
        filters.append(op.expression)
        return _collect_region(op.operand, scans, filters)
    return False


def _rebuild_region(
    ordered: Sequence[TriplePattern],
    filters: Sequence[Expression],
    tree: Optional[AlgebraOp] = None,
) -> AlgebraOp:
    """The inverse of :func:`_collect_region`: a left-deep join of the
    *ordered* patterns (continuing *tree*, if given), filters re-pushed."""
    for pattern in ordered:
        scan = ScanOp(pattern)
        tree = scan if tree is None else JoinOp(tree, scan)
    for expression in filters:
        tree = _push_filter(tree, expression)
    return tree


def apply_cost_order(op: AlgebraOp, graph: Graph) -> AlgebraOp:
    """Reorder every pure scan/join/filter region by estimated cardinality."""
    if isinstance(op, (JoinOp, FilterOp)):
        scans: List[ScanOp] = []
        filters: List[Expression] = []
        if _collect_region(op, scans, filters) and len(scans) > 1:
            return _rebuild_region(
                order_patterns_by_cost([s.pattern for s in scans], graph),
                filters,
            )
    if isinstance(op, JoinOp):
        return JoinOp(
            apply_cost_order(op.left, graph), apply_cost_order(op.right, graph)
        )
    if isinstance(op, LeftJoinOp):
        return LeftJoinOp(
            apply_cost_order(op.left, graph), apply_cost_order(op.right, graph)
        )
    if isinstance(op, UnionOp):
        return UnionOp([apply_cost_order(o, graph) for o in op.operands])
    if isinstance(op, FilterOp):
        return FilterOp(op.expression, apply_cost_order(op.operand, graph))
    if isinstance(op, ExtendOp):
        return ExtendOp(
            apply_cost_order(op.operand, graph), op.variable, op.expression
        )
    return op


def definitely_bound(op: AlgebraOp) -> frozenset:
    """Variables bound in *every* solution the operator emits.

    A variable outside this set may carry UNBOUND cells: unbound-tolerant
    compatibility cannot be bucketed (the distributed planner's shuffle
    legality), and an expression reading it sees whatever an enclosing join
    binds (:func:`free_expression_variables`). Conservative for unknown
    operators (empty set).
    """
    if isinstance(op, ScanOp):
        return frozenset(op.pattern.variables())
    if isinstance(op, JoinOp):
        return definitely_bound(op.left) | definitely_bound(op.right)
    if isinstance(op, LeftJoinOp):
        return definitely_bound(op.left)
    if isinstance(op, UnionOp):
        bound = None
        for operand in op.operands:
            child = definitely_bound(operand)
            bound = child if bound is None else bound & child
        return bound if bound is not None else frozenset()
    if isinstance(op, FilterOp):
        return definitely_bound(op.operand)
    if isinstance(op, ExtendOp):
        # BIND errors leave the target unbound: only the child's set holds.
        return definitely_bound(op.operand)
    if isinstance(op, TableOp):
        return frozenset(
            variable
            for index, variable in enumerate(op.variables)
            if all(row[index] is not None for row in op.rows)
        )
    if isinstance(op, EmptyOp):
        return frozenset()
    return frozenset()


def free_expression_variables(op: AlgebraOp) -> frozenset:
    """Variables referenced by expressions that the operator's own subtree
    may leave unbound — a conservative correlation signal.

    When the right side of a join has free expression variables that the
    left side binds, substitution semantics (the interpreted engine
    propagates left bindings into the right operand's expressions) diverge
    from independent bottom-up evaluation, so the vector engine must not
    evaluate that right side on its own. A variable the subtree binds only
    in *some* solutions (VALUES UNDEF, an inner OPTIONAL, one UNION branch)
    is free too: where it is unbound, the expression reads the outer value.
    """
    if isinstance(op, FilterOp):
        own = expression_variables(op.expression) - definitely_bound(op.operand)
        return frozenset(own) | free_expression_variables(op.operand)
    if isinstance(op, ExtendOp):
        # The BIND target variable itself is correlation-sensitive too: if an
        # outer operand binds it, the interpreted engine raises a rebind
        # error that bottom-up evaluation would never see.
        own = (
            expression_variables(op.expression) | {op.variable}
        ) - definitely_bound(op.operand)
        return frozenset(own) | free_expression_variables(op.operand)
    if isinstance(op, (JoinOp, LeftJoinOp)):
        return free_expression_variables(op.left) | free_expression_variables(
            op.right
        )
    if isinstance(op, UnionOp):
        result: frozenset = frozenset()
        for operand in op.operands:
            result |= free_expression_variables(operand)
        return result
    return frozenset()


def optional_blind_variables(op: AlgebraOp) -> frozenset:
    """Variables bound only on the *right* (optional) side of some LeftJoin
    inside ``op`` — the non-well-designed-pattern signal.

    When such a variable is also bound by the other operand of an enclosing
    join, substitution semantics diverge from bottom-up evaluation: the
    interpreted engine constrains the optional part with the outer binding
    (so a mismatch falls back to the bare left row), while an independent
    hash join would first extend with the unconstrained match and then drop
    the row. The vector engine treats these like expression correlation and
    runs the enclosing join as a dependent join.
    """
    if isinstance(op, LeftJoinOp):
        blind = operator_variables(op.right) - operator_variables(op.left)
        return (
            frozenset(blind)
            | optional_blind_variables(op.left)
            | optional_blind_variables(op.right)
        )
    if isinstance(op, JoinOp):
        return optional_blind_variables(op.left) | optional_blind_variables(
            op.right
        )
    if isinstance(op, UnionOp):
        result: frozenset = frozenset()
        for operand in op.operands:
            result |= optional_blind_variables(operand)
        return result
    if isinstance(op, (FilterOp, ExtendOp)):
        return optional_blind_variables(op.operand)
    return frozenset()


def correlation_variables(op: AlgebraOp) -> frozenset:
    """Variables through which an enclosing join's other operand can change
    what *op* evaluates to (beyond plain solution compatibility)."""
    return free_expression_variables(op) | optional_blind_variables(op)
