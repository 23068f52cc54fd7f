"""Iterator-model evaluator for the SPARQL algebra.

Solutions are immutable-ish dicts mapping :class:`Variable` to RDF terms.
Joins propagate bindings into the right operand's scans (index nested-loop
join), so selectivity ordering from the algebra layer directly controls work.

Extension functions (the GeoSPARQL ``geof:`` family) are supplied through a
:class:`FunctionRegistry`; the evaluator itself knows nothing about geometry.

Operator-level observability: with an :class:`~repro.obs.Observability`
bundle on the :class:`ExecContext` every algebra operator reports how long its
iterator ran and how many solutions it produced — the ``sparql.op_seconds``
histogram and ``sparql.op_solutions`` counter, labelled by operator type.
Timing is inclusive of children (a join's total contains its scans) and
excludes consumer time between pulls. With no bundle the evaluator takes
the raw, unwrapped path.

Governance (E23): a :class:`~repro.sparql.governor.QueryBudget` on the
context wraps every operator the same way — one checkpoint per pulled
solution (cancellation, injected operator slowness, deadline) plus
resident-row accounting at the root materialization. With no budget the
evaluator takes the raw path, byte-identical to pre-E23 code.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from repro.errors import SPARQLError
from repro.obs import Observability
from repro.rdf.graph import Graph
from repro.rdf.term import Term
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
)
from repro.sparql.ast import (
    Aggregate,
    BinaryOp,
    Expression,
    FunctionCall,
    SelectQuery,
    TermExpr,
    TriplePattern,
    UnaryOp,
    Variable,
    VarExpr,
)
from repro.sparql.functions import (
    BUILTINS,
    EvaluationError,
    Value,
    _comparable,
    _numeric,
    arithmetic,
    compare,
    effective_boolean_value,
    to_term,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparql.governor import QueryBudget

Bindings = Dict[Variable, Term]
ExtensionFunction = Callable[[List[Value]], Value]


class FunctionRegistry:
    """Maps extension-function IRIs to Python callables."""

    def __init__(self):
        self._functions: Dict[str, ExtensionFunction] = {}

    def register(self, iri: str, function: ExtensionFunction) -> None:
        self._functions[iri] = function

    def get(self, iri: str) -> Optional[ExtensionFunction]:
        return self._functions.get(iri)

    def copy(self) -> "FunctionRegistry":
        registry = FunctionRegistry()
        registry._functions.update(self._functions)
        return registry


_EMPTY_REGISTRY = FunctionRegistry()


class ExecContext:
    """What one execution carries that is not plan state.

    Built once per query run and handed to whichever engine runs the tree.
    ``encoder``/``codec`` are the vector engine's per-execution term<->id
    mapping and the graph's shared decode tables, built on first use so an
    interpreted run never pays for them.

    ``scan_rows`` and ``computed`` say what the vector engine's operators
    read: a ``ScanOp`` matches the graph's rows whose subject id lies in the
    ``(first, last)`` range ``scan_rows`` (None: every row), and an
    operator whose ``id()`` keys ``computed`` is
    not run — its batch is given. :meth:`reading` sets both for one task of
    a distributed stage.
    """

    def __init__(
        self,
        graph: Graph,
        registry: FunctionRegistry,
        obs: Optional[Observability] = None,
        budget: Optional["QueryBudget"] = None,
    ):
        self.graph = graph
        self.registry = registry
        self.obs = obs if obs is not None and obs.enabled else None
        self.budget = budget
        #: Always 0: the vector engine never hands an operator to the
        #: interpreted one. Kept because ``bench/`` reads it (ROADMAP item 9
        #: drops it).
        self.fallback_ops = 0
        self.scan_rows = None
        self.computed: Dict[int, object] = {}

    def reading(self, scan_rows, computed: Dict[int, object]) -> "ExecContext":
        """This execution, as one task sees it: scans read the subject-id
        range *scan_rows* (one partition's, or None) and *computed*
        subtrees are given. Budget, observability and the term encoder are
        the execution's own, so a term the query computes — a BIND result —
        has one id in every task."""
        task = copy.copy(self)
        task.encoder = self.encoder
        task.scan_rows = scan_rows
        task.computed = computed
        return task

    @cached_property
    def encoder(self):
        from repro.sparql.vector.dictionary import TermEncoder

        return TermEncoder(self.graph)

    @cached_property
    def codec(self):
        from repro.sparql.vector.dictionary import codec_for

        return codec_for(self.graph)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def evaluate_expression(
    expression: Expression,
    bindings: Bindings,
    registry: FunctionRegistry = _EMPTY_REGISTRY,
) -> Value:
    """Evaluate an expression against one solution; raises EvaluationError."""
    if isinstance(expression, TermExpr):
        return expression.term
    if isinstance(expression, VarExpr):
        if expression.variable not in bindings:
            raise EvaluationError(f"unbound variable {expression.variable}")
        return bindings[expression.variable]
    if isinstance(expression, UnaryOp):
        if expression.operator == "!":
            return not effective_boolean_value(
                evaluate_expression(expression.operand, bindings, registry)
            )
        if expression.operator == "-":
            value = evaluate_expression(expression.operand, bindings, registry)
            return -_as_number(value)
        raise EvaluationError(f"unknown unary operator {expression.operator!r}")
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, bindings, registry)
    if isinstance(expression, FunctionCall):
        return _evaluate_call(expression, bindings, registry)
    raise SPARQLError(f"unknown expression node {type(expression).__name__}")


def _as_number(value: Value) -> Union[int, float]:
    return _numeric(value)


def _evaluate_binary(
    expression: BinaryOp, bindings: Bindings, registry: FunctionRegistry
) -> Value:
    operator = expression.operator
    if operator == "&&":
        # SPARQL logical-and: false dominates errors.
        left_error = None
        try:
            if not effective_boolean_value(
                evaluate_expression(expression.left, bindings, registry)
            ):
                return False
        except EvaluationError as exc:
            left_error = exc
        right = effective_boolean_value(
            evaluate_expression(expression.right, bindings, registry)
        )
        if not right:
            return False
        if left_error is not None:
            raise left_error
        return True
    if operator == "||":
        left_error = None
        try:
            if effective_boolean_value(
                evaluate_expression(expression.left, bindings, registry)
            ):
                return True
        except EvaluationError as exc:
            left_error = exc
        right = effective_boolean_value(
            evaluate_expression(expression.right, bindings, registry)
        )
        if right:
            return True
        if left_error is not None:
            raise left_error
        return False

    left = evaluate_expression(expression.left, bindings, registry)
    right = evaluate_expression(expression.right, bindings, registry)
    if operator in ("=", "!=", "<", "<=", ">", ">="):
        return compare(operator, left, right)
    if operator in ("+", "-", "*", "/"):
        return arithmetic(operator, left, right)
    raise EvaluationError(f"unknown operator {operator!r}")


def _evaluate_call(
    expression: FunctionCall, bindings: Bindings, registry: FunctionRegistry
) -> Value:
    name = expression.name
    # Lazy builtins.
    if name == "BOUND":
        if len(expression.args) != 1 or not isinstance(expression.args[0], VarExpr):
            raise EvaluationError("BOUND requires a single variable argument")
        return expression.args[0].variable in bindings
    if name == "IF":
        if len(expression.args) != 3:
            raise EvaluationError("IF takes 3 arguments")
        condition = effective_boolean_value(
            evaluate_expression(expression.args[0], bindings, registry)
        )
        chosen = expression.args[1] if condition else expression.args[2]
        return evaluate_expression(chosen, bindings, registry)
    if name == "COALESCE":
        for arg in expression.args:
            try:
                return evaluate_expression(arg, bindings, registry)
            except EvaluationError:
                continue
        raise EvaluationError("COALESCE: all arguments errored")

    args = [evaluate_expression(arg, bindings, registry) for arg in expression.args]
    builtin = BUILTINS.get(name)
    if builtin is not None:
        return builtin(args)
    extension = registry.get(name)
    if extension is not None:
        return extension(args)
    raise EvaluationError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# Operator evaluation
# ---------------------------------------------------------------------------

def _substitute(pattern: TriplePattern, bindings: Bindings) -> TriplePattern:
    def resolve(position):
        if isinstance(position, Variable) and position in bindings:
            return bindings[position]
        return position

    return TriplePattern(
        resolve(pattern.subject), resolve(pattern.predicate), resolve(pattern.object)
    )


def _scan(
    graph: Graph, pattern: TriplePattern, bindings: Bindings
) -> Iterator[Bindings]:
    concrete = _substitute(pattern, bindings)
    query = tuple(
        None if isinstance(position, Variable) else position
        for position in (concrete.subject, concrete.predicate, concrete.object)
    )
    for triple in graph.triples(query):  # type: ignore[arg-type]
        new_bindings = dict(bindings)
        consistent = True
        for position, term in zip(
            (concrete.subject, concrete.predicate, concrete.object), triple
        ):
            if isinstance(position, Variable):
                existing = new_bindings.get(position)
                if existing is None:
                    new_bindings[position] = term
                elif existing != term:
                    consistent = False
                    break
        if consistent:
            yield new_bindings


def _evaluate_op(
    op: AlgebraOp, ctx: ExecContext, bindings: Bindings
) -> Iterator[Bindings]:
    """Dispatch: raw operator iterator, optionally wrapped for governance
    (budget checkpoints per pulled solution) and observability (timing)."""
    iterator = _op_iter(op, ctx, bindings)
    if ctx.budget is not None:
        iterator = _governed_iter(iterator, type(op).__name__, ctx.budget)
    if ctx.obs is None:
        return iterator
    return _timed_iter(iterator, type(op).__name__, ctx.obs)


def _governed_iter(
    iterator: Iterator[Bindings], op_name: str, budget: "QueryBudget"
) -> Iterator[Bindings]:
    """Budget checkpoint before every pull: cancellation, injected operator
    slowness and the deadline are all observed between solutions, so a
    runaway operator can be stopped mid-stream (cooperatively)."""
    while True:
        budget.checkpoint(op_name)
        try:
            solution = next(iterator)
        except StopIteration:
            return
        budget.produced(1)
        yield solution


def _timed_iter(
    iterator: Iterator[Bindings], op_name: str, obs: Observability
) -> Iterator[Bindings]:
    """Account an operator's iterator time + cardinality to ``sparql.*``."""
    clock = obs.tracer.now
    elapsed = 0.0
    produced = 0
    try:
        while True:
            started = clock()
            try:
                solution = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed += clock() - started
            produced += 1
            yield solution
    finally:
        obs.metrics.histogram("sparql.op_seconds", op=op_name).observe(elapsed)
        obs.metrics.counter("sparql.op_solutions", op=op_name).inc(produced)


def _op_iter(
    op: AlgebraOp, ctx: ExecContext, bindings: Bindings
) -> Iterator[Bindings]:
    registry = ctx.registry
    if isinstance(op, EmptyOp):
        yield dict(bindings)
        return
    if isinstance(op, ScanOp):
        yield from _scan(ctx.graph, op.pattern, bindings)
        return
    if isinstance(op, JoinOp):
        for left_solution in _evaluate_op(op.left, ctx, bindings):
            yield from _evaluate_op(op.right, ctx, left_solution)
        return
    if isinstance(op, LeftJoinOp):
        for left_solution in _evaluate_op(op.left, ctx, bindings):
            extended = False
            for joined in _evaluate_op(op.right, ctx, left_solution):
                extended = True
                yield joined
            if not extended:
                yield left_solution
        return
    if isinstance(op, UnionOp):
        for operand in op.operands:
            yield from _evaluate_op(operand, ctx, bindings)
        return
    if isinstance(op, FilterOp):
        for solution in _evaluate_op(op.operand, ctx, bindings):
            try:
                keep = effective_boolean_value(
                    evaluate_expression(op.expression, solution, registry)
                )
            except EvaluationError:
                keep = False
            if keep:
                yield solution
        return
    if isinstance(op, ExtendOp):
        for solution in _evaluate_op(op.operand, ctx, bindings):
            if op.variable in solution:
                raise SPARQLError(
                    f"BIND would rebind already-bound variable {op.variable}"
                )
            extended = dict(solution)
            try:
                extended[op.variable] = to_term(
                    evaluate_expression(op.expression, solution, registry)
                )
            except EvaluationError:
                pass  # expression error: the variable stays unbound
            yield extended
        return
    if isinstance(op, TableOp):
        for row in op.rows:
            candidate = dict(bindings)
            compatible = True
            for variable, term in zip(op.variables, row):
                if term is None:
                    continue  # UNDEF constrains nothing
                existing = candidate.get(variable)
                if existing is None:
                    candidate[variable] = term
                elif existing != term:
                    compatible = False
                    break
            if compatible:
                yield candidate
        return
    raise SPARQLError(f"unknown operator {type(op).__name__}")


# ---------------------------------------------------------------------------
# Query evaluation (solution modifiers, aggregation, projection)
# ---------------------------------------------------------------------------

def materialize_select(
    query: SelectQuery,
    iterator: Iterable[Bindings],
    registry: FunctionRegistry = _EMPTY_REGISTRY,
    budget: Optional["QueryBudget"] = None,
) -> List[Bindings]:
    """Materialize a SELECT's root iterator and apply solution modifiers.

    The general path pulls everything, then runs
    :func:`apply_solution_modifiers`. LIMIT-without-ORDER-BY queries
    short-circuit instead: projection and (incremental) DISTINCT run
    per-solution and the pull stops as soon as ``OFFSET + LIMIT`` results
    exist, so ``LIMIT 10`` over a huge pattern does bounded work. The
    incremental pipeline keeps first occurrences in stream order — exactly
    what project-then-dedupe-then-slice over the full list returns — so
    results are byte-identical to the unbounded path.

    With a *budget*, every retained solution charges resident-row
    accounting (the root materialization is the interpreted engine's one
    unbounded buffer).
    """
    if (
        not query.is_aggregate
        and not query.order_by
        and query.limit is not None
    ):
        needed = query.offset + query.limit
        results: List[Bindings] = []
        seen = set() if query.distinct else None
        if needed > 0:
            for solution in iterator:
                if query.variables:
                    solution = {
                        v: solution[v] for v in query.variables if v in solution
                    }
                if seen is not None:
                    key = frozenset(solution.items())
                    if key in seen:
                        continue
                    seen.add(key)
                if budget is not None:
                    budget.charge_rows(
                        1, max(1, len(solution)), "materialize"
                    )
                results.append(solution)
                if len(results) >= needed:
                    break
        return results[query.offset:]

    solutions: List[Bindings] = []
    for solution in iterator:
        if budget is not None:
            budget.charge_rows(1, max(1, len(solution)), "materialize")
        solutions.append(solution)
    return apply_solution_modifiers(query, solutions, registry)


def apply_solution_modifiers(
    query: SelectQuery,
    solutions: List[Bindings],
    registry: FunctionRegistry = _EMPTY_REGISTRY,
) -> List[Bindings]:
    """Aggregation and solution modifiers, in the SPARQL-algebra order.

    Per SPARQL 1.1 (18.2.4-18.2.5) the pipeline is: aggregate, ORDER BY,
    projection, DISTINCT, then the OFFSET/LIMIT slice. ORDER BY runs
    *before* projection so it can sort by variables the SELECT clause drops
    — projecting first silently degraded every such sort key to the unbound
    sentinel. Both local stores (the core evaluator and ``GeoStore``) feed
    their raw solution lists through this one pipeline.
    """
    solutions = list(solutions)
    if query.is_aggregate:
        solutions = _aggregate(query, solutions, registry)
    return order_and_slice(query, solutions, registry)


def order_and_slice(
    query: SelectQuery, solutions: List[Bindings], registry: FunctionRegistry
) -> List[Bindings]:
    """Everything after aggregation: ORDER BY, projection (of
    non-aggregate rows), DISTINCT, OFFSET/LIMIT. The vector engine feeds its
    own aggregate rows through here, so the tail is written once."""
    if query.order_by:
        for condition in reversed(query.order_by):
            solutions.sort(
                key=lambda s, c=condition: _order_key(c.expression, s, registry),
                reverse=condition.descending,
            )
    if not query.is_aggregate:
        solutions = _project(query.variables, solutions)
    if query.distinct:
        solutions = _distinct(solutions)
    if query.offset:
        solutions = solutions[query.offset:]
    if query.limit is not None:
        solutions = solutions[: query.limit]
    return solutions


def _project(variables: List[Variable], solutions: List[Bindings]) -> List[Bindings]:
    if not variables:  # SELECT *
        return solutions
    return [
        {v: s[v] for v in variables if v in s}
        for s in solutions
    ]


def _distinct(solutions: List[Bindings]) -> List[Bindings]:
    seen = set()
    unique: List[Bindings] = []
    for solution in solutions:
        key = frozenset(solution.items())
        if key not in seen:
            seen.add(key)
            unique.append(solution)
    return unique


def _order_key(
    expression: Expression, solution: Bindings, registry: FunctionRegistry
) -> Tuple[int, object]:
    try:
        value = evaluate_expression(expression, solution, registry)
    except EvaluationError:
        return (0, 0.0)  # unbound sorts first
    try:
        comparable = _comparable(value)
    except EvaluationError:
        return (0, 0.0)
    if isinstance(comparable, bool):
        comparable = int(comparable)
    if isinstance(comparable, str):
        return (2, comparable)
    return (1, comparable)


def _aggregate(
    query: SelectQuery, solutions: List[Bindings], registry: FunctionRegistry
) -> List[Bindings]:
    groups: Dict[Tuple, List[Bindings]] = {}
    for solution in solutions:
        key = tuple(solution.get(v) for v in query.group_by)
        groups.setdefault(key, []).append(solution)
    if not groups and not query.group_by:
        groups[()] = []

    results: List[Bindings] = []
    for key, members in groups.items():
        row: Bindings = {
            v: term for v, term in zip(query.group_by, key) if term is not None
        }
        for aggregate in query.aggregates:
            try:
                row[aggregate.alias] = to_term(
                    _apply_aggregate(aggregate, members, registry)
                )
            except EvaluationError:
                # Aggregate evaluation error (e.g. MIN over incomparable
                # values, or MIN/MAX of an empty group): per SPARQL 1.1 the
                # aggregate's variable is simply unbound in the result row.
                pass
        results.append(row)
    return results


def _apply_aggregate(
    aggregate: Aggregate, members: List[Bindings], registry: FunctionRegistry
) -> Value:
    """One aggregate over one group's solutions, per SPARQL 1.1 section 18.5.

    Raises :class:`EvaluationError` when the aggregate itself errors; the
    caller leaves the alias unbound in that row.
    """
    if aggregate.argument is None:  # COUNT(*)
        if aggregate.function != "COUNT":
            raise SPARQLError(f"{aggregate.function}(*) is not valid")
        if aggregate.distinct:  # COUNT(DISTINCT *): distinct full solutions
            return len({frozenset(member.items()) for member in members})
        return len(members)

    values: List[Value] = []
    for member in members:
        try:
            values.append(
                evaluate_expression(aggregate.argument, member, registry)
            )
        except EvaluationError:
            continue
    if aggregate.distinct:
        seen = set()
        unique = []
        for value in values:
            marker = to_term(value)
            if marker not in seen:
                seen.add(marker)
                unique.append(value)
        values = unique

    if aggregate.function == "COUNT":
        return len(values)
    if aggregate.function in ("MIN", "MAX"):
        # Per SPARQL 1.1, Min/Max use the general "<" ordering (compare), not
        # numeric coercion — MIN over strings is the lexicographic minimum.
        # Empty group or incomparable values error -> alias unbound.
        if not values:
            raise EvaluationError(f"{aggregate.function} over empty group")
        operator = "<" if aggregate.function == "MIN" else ">"
        best = values[0]
        for value in values[1:]:
            if compare(operator, value, best):
                best = value
        return best

    numbers = [_numeric(v) for v in values]
    if aggregate.function == "SUM":
        # Sum({}) = 0 per the spec (a typed xsd:integer zero).
        return sum(numbers) if numbers else 0
    if aggregate.function == "AVG":
        # Avg({}) = 0 per the spec.
        return sum(numbers) / len(numbers) if numbers else 0
    raise SPARQLError(f"unknown aggregate {aggregate.function}")
