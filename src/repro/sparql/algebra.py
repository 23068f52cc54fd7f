"""Logical algebra and query optimisation.

Compiles the parsed AST to a tree of algebra operators and applies two classic
rewrites:

* **Filter pushdown** — a filter is attached to the earliest point where all
  of its variables are bound, so non-matching bindings die young.
* **Selectivity-ordered joins** — triple patterns inside a BGP are greedily
  reordered: most selective first (judged by bound-position shape and, when a
  graph is supplied, actual index cardinalities), preferring patterns that
  share variables with what has already been joined.

The E2/E9 ablation benches run with these rewrites disabled to measure their
contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import SPARQLError
from repro.rdf.graph import Graph
from repro.sparql.ast import (
    BGP,
    BinaryOp,
    BindPattern,
    Expression,
    FilterPattern,
    FunctionCall,
    GraphPattern,
    GroupPattern,
    OptionalPattern,
    TermExpr,
    TriplePattern,
    UnaryOp,
    UnionPattern,
    ValuesPattern,
    Variable,
    VarExpr,
)

# ---------------------------------------------------------------------------
# Algebra operators
# ---------------------------------------------------------------------------

class AlgebraOp:
    """Base class for executable operators."""


@dataclass
class ScanOp(AlgebraOp):
    """Match one triple pattern against the store."""

    pattern: TriplePattern


@dataclass
class JoinOp(AlgebraOp):
    """Natural join of two operand solution streams."""

    left: AlgebraOp
    right: AlgebraOp


@dataclass
class LeftJoinOp(AlgebraOp):
    """OPTIONAL: keep left solutions, extend with right when compatible."""

    left: AlgebraOp
    right: AlgebraOp


@dataclass
class UnionOp(AlgebraOp):
    """Concatenation of alternative solution streams."""

    operands: List[AlgebraOp]


@dataclass
class FilterOp(AlgebraOp):
    """Keep solutions where the expression's effective boolean value is true."""

    expression: Expression
    operand: AlgebraOp


@dataclass
class ExtendOp(AlgebraOp):
    """BIND: extend each solution with ``variable = expression`` (errors
    leave the variable unbound, per the SPARQL spec)."""

    operand: AlgebraOp
    variable: Variable
    expression: Expression


@dataclass
class TableOp(AlgebraOp):
    """VALUES: an inline table of solutions (None cells are UNDEF)."""

    variables: List[Variable]
    rows: List[List]


@dataclass
class EmptyOp(AlgebraOp):
    """Produces the single empty solution (identity of join)."""


# ---------------------------------------------------------------------------
# Expression variable analysis
# ---------------------------------------------------------------------------

def expression_variables(expression: Expression) -> FrozenSet[Variable]:
    """All variables mentioned by an expression."""
    if isinstance(expression, VarExpr):
        return frozenset({expression.variable})
    if isinstance(expression, TermExpr):
        return frozenset()
    if isinstance(expression, UnaryOp):
        return expression_variables(expression.operand)
    if isinstance(expression, BinaryOp):
        return expression_variables(expression.left) | expression_variables(
            expression.right
        )
    if isinstance(expression, FunctionCall):
        result: FrozenSet[Variable] = frozenset()
        for arg in expression.args:
            result |= expression_variables(arg)
        return result
    raise TypeError(f"unknown expression node {type(expression).__name__}")


def operator_variables(op: AlgebraOp) -> FrozenSet[Variable]:
    """Variables that an operator's solutions may bind."""
    if isinstance(op, ScanOp):
        return frozenset(op.pattern.variables())
    if isinstance(op, (JoinOp, LeftJoinOp)):
        return operator_variables(op.left) | operator_variables(op.right)
    if isinstance(op, UnionOp):
        result: FrozenSet[Variable] = frozenset()
        for operand in op.operands:
            result |= operator_variables(operand)
        return result
    if isinstance(op, FilterOp):
        return operator_variables(op.operand)
    if isinstance(op, ExtendOp):
        return operator_variables(op.operand) | {op.variable}
    if isinstance(op, TableOp):
        return frozenset(op.variables)
    if isinstance(op, EmptyOp):
        return frozenset()
    raise TypeError(f"unknown operator {type(op).__name__}")


# ---------------------------------------------------------------------------
# Selectivity model
# ---------------------------------------------------------------------------

# Shape-based selectivity ranks, most selective first, following the classic
# heuristic ordering (bound subject+object beats bound subject beats ...).
_SHAPE_RANK = {
    (True, True, True): 0,
    (True, True, False): 2,
    (True, False, True): 1,
    (False, True, True): 3,
    (True, False, False): 4,
    (False, False, True): 5,
    (False, True, False): 6,
    (False, False, False): 7,
}


def pattern_selectivity(pattern: TriplePattern, graph: Optional[Graph] = None) -> float:
    """Lower is more selective. Uses index statistics when a graph is given."""
    shape = (
        not isinstance(pattern.subject, Variable),
        not isinstance(pattern.predicate, Variable),
        not isinstance(pattern.object, Variable),
    )
    rank = float(_SHAPE_RANK[shape])
    if graph is not None and shape[1] and not isinstance(pattern.predicate, Variable):
        cardinality = graph.predicate_count(pattern.predicate)
        rank += min(cardinality / max(len(graph), 1), 1.0)
    return rank


def order_patterns(
    patterns: Sequence[TriplePattern],
    graph: Optional[Graph] = None,
    bound_vars: Optional[Set[Variable]] = None,
    filter_vars: Optional[Set[Variable]] = None,
) -> List[TriplePattern]:
    """Greedy join ordering: most selective first, preferring connected patterns.

    ``bound_vars`` declares variables already bound by an upstream operator
    (e.g. a spatial candidate table), so patterns touching them are treated as
    connected from the start. ``filter_vars`` are variables constrained by a
    pushable filter — patterns binding them get a selectivity bonus, since
    the filter will thin their output immediately.
    """
    remaining = list(patterns)
    ordered: List[TriplePattern] = []
    bound: Set[Variable] = set(bound_vars or ())
    filtered = set(filter_vars or ())
    while remaining:
        def score(p: TriplePattern) -> Tuple[int, float]:
            shared = sum(1 for v in p.variables() if v in bound)
            rank = pattern_selectivity(p, graph)
            if filtered and any(v in filtered for v in p.variables()):
                rank -= 0.5
            # Connected patterns first (0), then by selectivity.
            return (0 if shared or not bound else 1, rank)

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables())
    return ordered


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

#: The execution engines a plan can be shaped for (the labels of the engine
#: table in :mod:`repro.sparql.pipeline`). The distributed engine is not a
#: label: it runs vector plans and is entered through its runtime
#: (:meth:`repro.sparql.dist.DistRuntime.query`).
ENGINES = ("interpreted", "vector")


@dataclass(frozen=True)
class CompileOptions:
    """What shapes a plan — and nothing else (all rewrites on by default;
    benches toggle them).

    ``engine`` selects the execution engine: ``"interpreted"`` is the
    iterator-model evaluator; ``"vector"`` runs the columnar engine
    (:mod:`repro.sparql.vector`) with cost-based join ordering. Both return
    identical solution multisets, from differently ordered plans.

    Frozen and hashable: the object itself is the options component of
    plan-cache and coalescing keys, so every field must be plan state.
    Per-execution state (a :class:`~repro.sparql.governor.QueryBudget`, an
    observability bundle) travels as explicit arguments into the
    :class:`~repro.sparql.evaluator.ExecContext` instead.
    """

    push_filters: bool = True
    reorder_patterns: bool = True
    engine: str = "interpreted"

    def __post_init__(self) -> None:
        # The label arrives from callers outside the package; an unknown one
        # must not fall through to some default engine.
        if self.engine not in ENGINES:
            raise SPARQLError(
                f"unknown engine {self.engine!r}; known engines: "
                + ", ".join(repr(name) for name in ENGINES)
            )


def compile_group(
    group: GroupPattern,
    graph: Optional[Graph] = None,
    options: Optional[CompileOptions] = None,
) -> AlgebraOp:
    """Compile a WHERE group to an executable operator tree."""
    options = options or CompileOptions()
    filters: List[Expression] = [
        child.expression
        for child in group.children
        if isinstance(child, FilterPattern)
    ]
    filter_vars: Set[Variable] = set()
    for expression in filters:
        filter_vars |= expression_variables(expression)
    operands: List[AlgebraOp] = []

    for child in group.children:
        if isinstance(child, FilterPattern):
            continue
        elif isinstance(child, BGP):
            operands.append(_compile_bgp(child, graph, options, filter_vars))
        elif isinstance(child, OptionalPattern):
            right = compile_group(child.pattern, graph, options)
            left = _join_all(operands) if operands else EmptyOp()
            operands = [LeftJoinOp(left, right)]
        elif isinstance(child, UnionPattern):
            operands.append(
                UnionOp([compile_group(alt, graph, options) for alt in child.alternatives])
            )
        elif isinstance(child, BindPattern):
            # BIND scopes over the group so far: wrap the accumulated tree.
            current = _join_all(operands) if operands else EmptyOp()
            operands = [ExtendOp(current, child.variable, child.expression)]
        elif isinstance(child, ValuesPattern):
            operands.append(TableOp(list(child.variables), [list(r) for r in child.rows]))
        elif isinstance(child, GroupPattern):
            operands.append(compile_group(child, graph, options))
        else:
            raise TypeError(f"unknown pattern {type(child).__name__}")

    tree = _join_all(operands) if operands else EmptyOp()
    # Filters in a group scope over the whole group.
    for expression in filters:
        if options.push_filters:
            tree = _push_filter(tree, expression)
        else:
            tree = FilterOp(expression, tree)
    return tree


def _compile_bgp(
    bgp: BGP,
    graph: Optional[Graph],
    options: CompileOptions,
    filter_vars: Optional[Set[Variable]] = None,
) -> AlgebraOp:
    patterns = (
        order_patterns(bgp.patterns, graph, filter_vars=filter_vars)
        if options.reorder_patterns
        else list(bgp.patterns)
    )
    if not patterns:
        return EmptyOp()
    tree: AlgebraOp = ScanOp(patterns[0])
    for pattern in patterns[1:]:
        tree = JoinOp(tree, ScanOp(pattern))
    return tree


def _join_all(operands: List[AlgebraOp]) -> AlgebraOp:
    tree = operands[0]
    for operand in operands[1:]:
        tree = JoinOp(tree, operand)
    return tree


def _push_filter(tree: AlgebraOp, expression: Expression) -> AlgebraOp:
    """Attach the filter at the deepest operator binding all its variables."""
    needed = expression_variables(expression)

    def attach(op: AlgebraOp) -> Tuple[AlgebraOp, bool]:
        if isinstance(op, JoinOp):
            if needed <= operator_variables(op.left):
                new_left, done = attach(op.left)
                if done:
                    return JoinOp(new_left, op.right), True
            if needed <= operator_variables(op.right):
                new_right, done = attach(op.right)
                if done:
                    return JoinOp(op.left, new_right), True
            if needed <= operator_variables(op):
                return FilterOp(expression, op), True
            return op, False
        if isinstance(op, FilterOp):
            new_inner, done = attach(op.operand)
            if done:
                return FilterOp(op.expression, new_inner), True
            return op, False
        if needed <= operator_variables(op):
            return FilterOp(expression, op), True
        return op, False

    # Never push into the right side of a LeftJoin (changes OPTIONAL semantics);
    # treat LeftJoinOp as a leaf.
    new_tree, done = attach(tree)
    if done:
        return new_tree
    # Unbound variables in the filter: evaluates over the whole tree (likely
    # yielding errors -> false per SPARQL semantics).
    return FilterOp(expression, tree)
