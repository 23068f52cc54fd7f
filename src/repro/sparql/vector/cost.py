"""The plan stage's one join-ordering pass, and the vector family's score.

:func:`order_regions` runs for every engine row whenever
``CompileOptions.reorder_patterns`` is on, after the caller's rewrite hook.
It flattens each pure scan/join/filter region — exactly the shape
:func:`repro.sparql.algebra.compile_group` emits for BGPs with pushed
filters — orders its patterns with the one greedy loop
(:func:`repro.sparql.algebra.order_patterns`) under the engine row's score,
rebuilds it left-deep and re-pushes its filters. OPTIONAL/UNION/BIND
boundaries, user VALUES tables and filters reading a variable their own
operand does not bind (a group's scope) end a region and are recursed into.
A region may start from one table a rewrite planted (a
:class:`~repro.sparql.template.BindTable`, e.g. the GeoStore's R-tree
candidates): its variables count as bound, so the join walks outward from it.

:func:`cost_score` is the vector and distributed rows' score, fed by O(1)
index statistics (:meth:`repro.rdf.graph.Graph.count` answers every pattern
shape from bucket sizes):

* the base cost of a pattern is its **exact** extent (count with variables
  wildcarded);
* a variable position already bound upstream divides the estimate by the
  number of distinct terms in that position (classic independence
  assumption), modelling the hash join's selectivity;
* equal estimates fall back to the interpreted row's score.

The interpreted row keeps the shape-rank heuristic
(:func:`repro.sparql.algebra.selectivity_score`): one score for every row
moves production plans (ROADMAP item 12).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.rdf.graph import Graph
from repro.sparql.algebra import (
    AlgebraOp,
    EmptyOp,
    ExtendOp,
    FilterOp,
    JoinOp,
    LeftJoinOp,
    ScanOp,
    Score,
    TableOp,
    UnionOp,
    _join_all,
    _push_filter,
    expression_variables,
    operator_variables,
    order_patterns,
    selectivity_score,
)
from repro.sparql.ast import Expression, TriplePattern, Variable
from repro.sparql.template import BindTable


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


def cost_score(
    pattern: TriplePattern,
    graph: Graph,
    bound: Set[Variable],
    filtered: Set[Variable],
) -> Tuple[float, float]:
    """The vector family's join-order score: :func:`estimated_rows`, the
    interpreted row's score on ties (a filtered pattern, then the more
    selective shape first)."""
    return (
        estimated_rows(pattern, graph, bound),
        selectivity_score(pattern, graph, bound, filtered),
    )


# ---------------------------------------------------------------------------
# Plan rewrite
# ---------------------------------------------------------------------------

def _collect_region(
    op: AlgebraOp,
    scans: List[ScanOp],
    filters: List[Expression],
    tables: List[TableOp],
) -> bool:
    """Collect a pure scan/join/filter region (and any planted table in it);
    False if anything else occurs."""
    if isinstance(op, ScanOp):
        scans.append(op)
        return True
    if isinstance(op, BindTable):
        tables.append(op)
        return True
    if isinstance(op, JoinOp):
        return _collect_region(op.left, scans, filters, tables) and _collect_region(
            op.right, scans, filters, tables
        )
    if isinstance(op, FilterOp) and expression_variables(
        op.expression
    ) <= operator_variables(op.operand):
        filters.append(op.expression)
        return _collect_region(op.operand, scans, filters, tables)
    return False


def order_regions(op: AlgebraOp, graph: Graph, score: Score) -> AlgebraOp:
    """Reorder every pure scan/join/filter region of *op* by *score*: a
    left-deep join from its planted table (if any) along the ordered
    patterns, filters re-pushed."""
    if isinstance(op, (JoinOp, FilterOp)):
        scans: List[ScanOp] = []
        filters: List[Expression] = []
        tables: List[TableOp] = []
        if _collect_region(op, scans, filters, tables) and (
            len(tables) <= 1 < len(scans) + len(tables)
        ):
            ordered = order_patterns(
                [s.pattern for s in scans],
                graph,
                tables[0].variables if tables else (),
                set().union(*map(expression_variables, filters)),
                score,
            )
            tree = _join_all(tables + [ScanOp(p) for p in ordered])
            for expression in filters:
                tree = _push_filter(tree, expression)
            return tree

    def order(child: AlgebraOp) -> AlgebraOp:
        return order_regions(child, graph, score)

    if isinstance(op, (JoinOp, LeftJoinOp)):
        return type(op)(order(op.left), order(op.right))
    if isinstance(op, UnionOp):
        return UnionOp([order(o) for o in op.operands])
    if isinstance(op, FilterOp):
        return FilterOp(op.expression, order(op.operand))
    if isinstance(op, ExtendOp):
        return ExtendOp(order(op.operand), op.variable, op.expression)
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
