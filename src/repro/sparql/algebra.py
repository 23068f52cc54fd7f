"""Logical algebra and query optimisation.

Compiles the parsed AST to a tree of algebra operators, every BGP in written
order, with **filter pushdown**: a filter is attached to the earliest point
where all of its variables are bound, so non-matching bindings die young.

Join order is not chosen here. :func:`order_patterns` is the one greedy
join-ordering loop — connected patterns first, then an engine row's score,
then written order — and the plan stage runs it over every pure scan region
(:func:`repro.sparql.vector.cost.order_regions`). :func:`selectivity_score`
is the interpreted row's score: bound-position shape plus the predicate's
share of the graph, with a bonus for filtered variables.

The E2/E9 ablation benches run with these rewrites disabled to measure their
contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SPARQLError
from repro.rdf.graph import Graph
from repro.sparql.ast import (
    BGP,
    BinaryOp,
    BindPattern,
    Expression,
    FilterPattern,
    FunctionCall,
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


def selectivity_score(
    pattern: TriplePattern,
    graph: Optional[Graph],
    bound: Set[Variable],
    filtered: Set[Variable],
) -> float:
    """The interpreted row's join-order score: :func:`pattern_selectivity`,
    less a bonus when a filter constrains one of the pattern's variables
    (the filter will thin its output immediately)."""
    rank = pattern_selectivity(pattern, graph)
    if any(v in filtered for v in pattern.variables()):
        rank -= 0.5
    return rank


#: ``score(pattern, graph, bound, filtered)``: lower joins earlier.
Score = Callable[[TriplePattern, Optional[Graph], Set[Variable], Set[Variable]], Any]


def order_patterns(
    patterns: Sequence[TriplePattern],
    graph: Optional[Graph] = None,
    bound_vars: Iterable[Variable] = (),
    filter_vars: Iterable[Variable] = (),
    score: Score = selectivity_score,
) -> List[TriplePattern]:
    """The one greedy join-ordering loop: at each step, a pattern connected
    to what is already bound, then the lowest *score*, then written order.

    ``bound_vars`` are variables bound upstream (a planted candidate table),
    so patterns touching them count as connected from the start;
    ``filter_vars`` are the variables the region's filters constrain.
    """
    remaining = list(patterns)
    ordered: List[TriplePattern] = []
    bound: Set[Variable] = set(bound_vars)
    filtered = set(filter_vars)
    while remaining:
        def key(p: TriplePattern) -> Tuple[bool, Any]:
            connected = not bound or any(v in bound for v in p.variables())
            return (not connected, score(p, graph, bound, filtered))

        best = min(remaining, key=key)  # the first minimum: written order
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
    group: GroupPattern, options: Optional[CompileOptions] = None
) -> AlgebraOp:
    """Compile a WHERE group to an operator tree, every BGP in written order
    (join order is the plan stage's ordering pass,
    :func:`repro.sparql.vector.cost.order_regions`)."""
    options = options or CompileOptions()
    filters: List[Expression] = [
        child.expression
        for child in group.children
        if isinstance(child, FilterPattern)
    ]
    operands: List[AlgebraOp] = []

    for child in group.children:
        if isinstance(child, FilterPattern):
            continue
        elif isinstance(child, BGP):
            operands.append(_join_all([ScanOp(p) for p in child.patterns]))
        elif isinstance(child, OptionalPattern):
            right = compile_group(child.pattern, options)
            operands = [LeftJoinOp(_join_all(operands), right)]
        elif isinstance(child, UnionPattern):
            operands.append(
                UnionOp([compile_group(alt, options) for alt in child.alternatives])
            )
        elif isinstance(child, BindPattern):
            # BIND scopes over the group so far: wrap the accumulated tree.
            operands = [ExtendOp(_join_all(operands), child.variable, child.expression)]
        elif isinstance(child, ValuesPattern):
            operands.append(TableOp(list(child.variables), [list(r) for r in child.rows]))
        elif isinstance(child, GroupPattern):
            operands.append(compile_group(child, options))
        else:
            raise TypeError(f"unknown pattern {type(child).__name__}")

    tree = _join_all(operands)
    # Filters in a group scope over the whole group.
    for expression in filters:
        if options.push_filters:
            tree = _push_filter(tree, expression)
        else:
            tree = FilterOp(expression, tree)
    return tree


def _join_all(operands: Sequence[AlgebraOp]) -> AlgebraOp:
    """A left-deep join of *operands* (the empty solution for none)."""
    return reduce(JoinOp, operands) if operands else EmptyOp()


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
