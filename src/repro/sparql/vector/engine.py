"""The columnar executor: algebra tree -> batches -> solutions.

Executes the same :mod:`repro.sparql.algebra` operator tree the interpreted
evaluator runs, but bottom-up over :class:`~repro.sparql.vector.batch.Batch`
columns: scans materialize id arrays, joins are vectorized hash joins,
FILTER/BIND run through :mod:`repro.sparql.vector.expr`, and DISTINCT /
ORDER BY / slicing happen on arrays before terms are ever decoded.

The algebra is closed — every operator is one of the
:mod:`repro.sparql.algebra` dataclasses, anything else raises — and every
operator runs on columns. A join whose right side can read the left's
bindings (a FILTER or BIND over a variable the left binds, an
optional-blind variable: ``cost.correlation_variables``), where
substitution semantics differ from bottom-up evaluation, runs as a
*dependent join*: :func:`_under` evaluates the right side once for every
left row, as the interpreted nested loop does, but a whole batch of left
rows at a time.

Aggregation groups on packed id columns (a presence table over a dense key
span, else 1-D ``np.unique``) with vectorized COUNT / SUM / AVG /
COUNT(DISTINCT *) fast paths; every other aggregate
decodes the group's members and reuses the interpreted, spec-fixed
``_apply_aggregate`` — so both engines share one aggregate semantics.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SPARQLError
from repro.obs import Observability
from repro.rdf.graph import Graph
from repro.rdf.term import Term
from repro.sparql.algebra import (
    AlgebraOp,
    CompileOptions,
    EmptyOp,
    ExtendOp,
    FilterOp,
    JoinOp,
    LeftJoinOp,
    ScanOp,
    TableOp,
    UnionOp,
    compile_group,
)
from repro.sparql.ast import (
    Aggregate,
    SelectQuery,
    Variable,
    VarExpr,
)
from repro.sparql.evaluator import (
    ExecContext,
    _apply_aggregate,
    _order_key,
    order_and_slice,
)
from repro.sparql.functions import EvaluationError, to_term
from repro.sparql.vector.batch import UNBOUND, Batch
from repro.sparql.vector.cost import correlation_variables, cost_score, order_regions
from repro.sparql.vector.expr import ExprContext, bind_column, filter_keep_mask
from repro.sparql.vector.ops import (
    distinct_rows,
    hash_join,
    pack_keys,
    scan_batch,
    unique_keys,
)

Bindings = Dict[Variable, Term]


def compile_vector_plan(
    where, graph: Graph, options: Optional[CompileOptions]
) -> AlgebraOp:
    """Compile a WHERE group into a cost-ordered tree for vector execution
    (the pipeline's plan stage with no caller rewrite, for callers that want
    the tree without running it)."""
    options = options or CompileOptions()
    tree = compile_group(where, options)
    if options.reorder_patterns:
        tree = order_regions(tree, graph, cost_score)
    return tree


# ---------------------------------------------------------------------------
# Operator execution
# ---------------------------------------------------------------------------

def _execute(op: AlgebraOp, ctx: ExecContext) -> Batch:
    """Run one operator, with E23 governance when a budget rides along.

    The checkpoint fires *before* the operator runs (cancellation and
    deadlines are honoured between operators); the output batch is charged
    as resident state after releasing the children's share — inputs are
    garbage once the output exists, but the peak counters capture the
    moment both were live.
    """
    budget = ctx.budget
    if budget is None:
        return _execute_op(op, ctx)
    op_name = type(op).__name__
    budget.checkpoint(op_name)
    mark = budget.mark()
    batch = _execute_op(op, ctx)
    budget.release_to(mark)
    budget.charge_rows(batch.nrows, max(1, len(batch.columns)), op_name)
    return batch


def apply_filter(op: FilterOp, batch: Batch, ctx: ExecContext) -> Batch:
    """FILTER over an already computed operand batch (an error drops the
    row)."""
    if batch.nrows == 0:
        return batch
    return batch.mask(filter_keep_mask(op.expression, batch, ExprContext(ctx)))


def apply_extend(op: ExtendOp, batch: Batch, ctx: ExecContext) -> Batch:
    """BIND over an already computed operand batch (an error leaves the
    cell unbound)."""
    existing = batch.columns.get(op.variable)
    if existing is not None and (existing != UNBOUND).any():
        raise SPARQLError(
            f"BIND would rebind already-bound variable {op.variable}"
        )
    if batch.nrows == 0:
        return batch.with_column(op.variable, np.empty(0, dtype=np.int64))
    return batch.with_column(
        op.variable, bind_column(op.expression, batch, ExprContext(ctx))
    )


def _execute_op(op: AlgebraOp, ctx: ExecContext) -> Batch:
    if ctx.computed:
        computed = ctx.computed.get(id(op))
        if computed is not None:
            return computed
    if isinstance(op, EmptyOp):
        return Batch.unit()
    if isinstance(op, ScanOp):
        return scan_batch(ctx.graph, op.pattern, ctx.scan_rows)
    if isinstance(op, JoinOp):
        return _under(op.right, _execute(op.left, ctx), ctx)
    if isinstance(op, LeftJoinOp):
        return _optional_under(op.right, _execute(op.left, ctx), ctx)
    if isinstance(op, UnionOp):
        return Batch.concat([_execute(operand, ctx) for operand in op.operands])
    if isinstance(op, FilterOp):
        return apply_filter(op, _execute(op.operand, ctx), ctx)
    if isinstance(op, ExtendOp):
        return apply_extend(op, _execute(op.operand, ctx), ctx)
    if isinstance(op, TableOp):
        return Batch(ctx.codec.table_columns(op, ctx.encoder), len(op.rows))
    raise SPARQLError(f"unknown operator {type(op).__name__}")


# ---------------------------------------------------------------------------
# The dependent join
# ---------------------------------------------------------------------------

def _under(op: AlgebraOp, outer: Batch, ctx: ExecContext) -> Batch:
    """*op* evaluated under every row of *outer*: each output row extends
    the outer row it was evaluated under — the interpreted engine's
    substitution semantics (``evaluator._op_iter``), on columns.

    A subtree that cannot read the outer bindings runs once and is joined
    on. Otherwise the operator distributes over the outer rows: FILTER and
    BIND see the outer columns, a UNION concatenates its branches, and a
    join nests its right side under its left, as the nested loop does.
    """
    if not correlation_variables(op) & outer.columns.keys():
        return hash_join(outer, _execute(op, ctx), budget=ctx.budget)
    if isinstance(op, FilterOp):
        return apply_filter(op, _under(op.operand, outer, ctx), ctx)
    if isinstance(op, ExtendOp):
        return apply_extend(op, _under(op.operand, outer, ctx), ctx)
    if isinstance(op, UnionOp):
        return Batch.concat(
            [_under(operand, outer, ctx) for operand in op.operands]
        )
    if isinstance(op, JoinOp):
        return _under(op.right, _under(op.left, outer, ctx), ctx)
    if isinstance(op, LeftJoinOp):
        return _optional_under(op.right, _under(op.left, outer, ctx), ctx)
    raise SPARQLError(f"unknown operator {type(op).__name__}")


def _optional_under(op: AlgebraOp, outer: Batch, ctx: ExecContext) -> Batch:
    """``LeftJoin(outer, op)``: every outer row extended by *op* evaluated
    under it, or kept bare when nothing extends it.

    Correlated, the outer rows carry their index in a tag column through
    :func:`_under`; rows come out grouped by outer row, in outer order, like
    the nested loop the interpreted engine runs.
    """
    if not correlation_variables(op) & outer.columns.keys():
        return hash_join(
            outer, _execute(op, ctx), outer=True, budget=ctx.budget
        )
    # The tokenizer never produces a variable named by digits, and a batch
    # under a tag has more columns than the tagged one: each nesting level
    # gets its own tag.
    tag = Variable(str(len(outer.columns)))
    tagged = outer.with_column(tag, np.arange(outer.nrows, dtype=np.int64))
    joined = _under(op, tagged, ctx)
    extended = np.zeros(outer.nrows, dtype=bool)
    extended[joined.columns[tag]] = True
    out = Batch.concat([joined, tagged.mask(~extended)])
    out = out.take(np.argsort(out.columns[tag], kind="stable"))
    del out.columns[tag]
    return out


# ---------------------------------------------------------------------------
# Solution modifiers on arrays
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _row_maker(variables: Tuple[Variable, ...]) -> Callable[..., Bindings]:
    """``lambda a0, ..., an: {k0: a0, ..., kn: an}`` over *variables*: one
    dict display per row, the ``namedtuple`` idiom. The keys are globals of
    the generated function, so no variable name is ever part of its
    source."""
    keys = {f"k{i}": variable for i, variable in enumerate(variables)}
    params = ", ".join(f"a{i}" for i in range(len(variables)))
    items = ", ".join(f"k{i}: a{i}" for i in range(len(variables)))
    return eval(f"lambda {params}: {{{items}}}", keys)


def _batch_solutions(batch: Batch, ctx: ExecContext) -> List[Bindings]:
    if not batch.columns:
        return [{} for _ in range(batch.nrows)]
    terms = list(map(ctx.encoder.decode_column, batch.columns.values()))
    if batch.nrows and all(
        int(column.min()) > UNBOUND for column in batch.columns.values()
    ):
        # Every cell is bound: no per-cell branch, one dict display per row.
        return list(map(_row_maker(tuple(batch.columns)), *terms))
    variables = list(batch.columns)
    return [
        {v: term for v, term in zip(variables, row) if term is not None}
        for row in zip(*terms)
    ]


def _order_indices(
    query: SelectQuery, batch: Batch, ctx: ExecContext
) -> np.ndarray:
    """Stable multi-condition sort on arrays; mirrors the interpreted
    reversed-stable-sorts pipeline (including the unbound-first rank)."""
    indices = np.arange(batch.nrows, dtype=np.int64)
    lazy_solutions: Optional[List[Bindings]] = None
    for condition in reversed(query.order_by):
        fast = None
        if isinstance(condition.expression, VarExpr):
            ids = batch.column(condition.expression.variable)
            codec = ctx.codec
            in_range = (ids >= 0) & (ids < codec.size)
            codec.ensure(ids[in_range])
            numeric = np.zeros(len(ids), dtype=bool)
            numeric[in_range] = codec.cmp_valid[ids[in_range]]
            # Vector path only when every row is unbound or numeric; strings
            # and exotic terms take the python _order_key path.
            if bool(((ids == UNBOUND) | numeric).all()):
                rank = numeric.astype(np.float64)  # unbound=0, numeric=1
                value = np.zeros(len(ids), dtype=np.float64)
                value[numeric] = codec.cmp_values[ids[numeric]]
                fast = (rank, value)
        if fast is not None:
            rank, value = fast
            if condition.descending:
                order = np.lexsort((-value[indices], -rank[indices]))
            else:
                order = np.lexsort((value[indices], rank[indices]))
            indices = indices[order]
        else:
            if lazy_solutions is None:
                lazy_solutions = _batch_solutions(batch, ctx)
            keys = [
                _order_key(
                    condition.expression, lazy_solutions[i], ctx.registry
                )
                for i in range(batch.nrows)
            ]
            indices = np.array(
                sorted(indices, key=lambda i: keys[i], reverse=condition.descending),
                dtype=np.int64,
            )
    return indices


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _group_structure(query: SelectQuery, batch: Batch):
    """(group key rows or None, inverse group index per row, ngroups)."""
    if not query.group_by:
        # No GROUP BY: one group, even over zero solutions.
        return None, np.zeros(batch.nrows, dtype=np.int64), 1
    if batch.nrows == 0:
        return None, np.empty(0, dtype=np.int64), 0
    return group_rows([batch.column(v) for v in query.group_by])


def group_rows(columns: List[np.ndarray]):
    """Distinct rows of the key *columns*, in lexicographic order (UNBOUND
    first), the group index of every row, and the group count.

    The columns are packed into one int64 key, so grouping is one 1-D
    :func:`~repro.sparql.vector.ops.unique_keys`: a presence table over a
    dense key span, ``np.unique`` over a sparse one.
    """
    (keys,) = pack_keys(columns)
    first, inverse, ngroups = unique_keys(keys)
    uniq = np.column_stack([column[first] for column in columns])
    return uniq, inverse, ngroups


def _fast_aggregate(
    aggregate: Aggregate,
    batch: Batch,
    inverse: np.ndarray,
    ngroups: int,
    ctx: ExecContext,
):
    """Vectorized COUNT/SUM/AVG paths; None when the shape isn't covered.

    Returns a list of per-group python values, with EvaluationError sentinels
    represented as the ``_AGG_ERROR`` marker.
    """
    if aggregate.argument is None:
        if aggregate.function != "COUNT":
            return None
        if aggregate.distinct:  # COUNT(DISTINCT *): distinct full rows
            matrix = np.column_stack(
                [inverse]
                + [batch.column(v) for v in batch.columns]
            )
            uniq = np.unique(matrix, axis=0)
            counts = np.bincount(uniq[:, 0], minlength=ngroups)
            return [int(c) for c in counts]
        counts = np.bincount(inverse, minlength=ngroups)
        return [int(c) for c in counts]
    if aggregate.distinct or not isinstance(aggregate.argument, VarExpr):
        return None
    ids = batch.column(aggregate.argument.variable)
    bound = ids != UNBOUND
    if aggregate.function == "COUNT":
        counts = np.bincount(inverse, weights=bound, minlength=ngroups)
        return [int(c) for c in counts]
    if aggregate.function not in ("SUM", "AVG"):
        return None
    codec = ctx.codec
    if len(ids) and (ids.min() < UNBOUND or ids.max() >= codec.size):
        return None  # overflow ids: generic path
    if not bound.all():
        # An unbound cell adds nothing to any of the sums below, so its
        # row goes; every id left is in the codec's range.
        ids, inverse = ids[bound], inverse[bound]
    codec.ensure(ids)
    values = codec.arith_values.take(ids)  # 0.0 wherever not valid
    valid = codec.arith_valid.take(ids)
    is_int = codec.arith_is_int.take(ids)
    # An integer (or an integer running total) float64 cannot hold: the
    # generic path sums Python ints. The integers are exact and
    # non-negative, so any summation order crosses 2**53 alike.
    if codec.inexact.take(ids).any() or np.abs(values).sum(where=is_int) >= 2.0**53:
        return None
    poisoned = np.bincount(inverse, weights=~valid, minlength=ngroups)
    totals = np.bincount(inverse, weights=values, minlength=ngroups)
    counts = np.bincount(inverse, weights=valid, minlength=ngroups)
    floats = np.bincount(
        inverse, weights=valid & ~is_int, minlength=ngroups
    )
    results = []
    for group in range(ngroups):
        if poisoned[group]:
            results.append(_AGG_ERROR)  # non-numeric value: aggregate errors
        elif aggregate.function == "SUM":
            if counts[group] == 0:
                results.append(0)  # Sum({}) = 0
            elif floats[group] == 0:
                results.append(int(round(totals[group])))
            else:
                results.append(float(totals[group]))
        else:  # AVG
            if counts[group] == 0:
                results.append(0)  # Avg({}) = 0
            else:
                results.append(float(totals[group] / counts[group]))
    return results


_AGG_ERROR = object()


def _aggregate_vector(
    query: SelectQuery, batch: Batch, ctx: ExecContext
) -> List[Bindings]:
    uniq, inverse, ngroups = _group_structure(query, batch)
    if ngroups == 0:
        return []

    # Fast paths first; remember which aggregates still need members.
    per_aggregate: Dict[int, list] = {}
    need_members = []
    for position, aggregate in enumerate(query.aggregates):
        fast = _fast_aggregate(aggregate, batch, inverse, ngroups, ctx)
        if fast is not None:
            per_aggregate[position] = fast
        else:
            need_members.append(position)

    members_by_group: Optional[List[List[Bindings]]] = None
    if need_members:
        solutions = _batch_solutions(batch, ctx)
        members_by_group = [[] for _ in range(ngroups)]
        for row, group in enumerate(inverse):
            members_by_group[group].append(solutions[row])

    results: List[Bindings] = []
    budget = ctx.budget
    for group in range(ngroups):
        if budget is not None and group % 256 == 0:
            budget.checkpoint("Aggregate")
        row: Bindings = {}
        if uniq is not None:
            for index, variable in enumerate(query.group_by):
                term_id = int(uniq[group, index])
                if term_id != UNBOUND:
                    row[variable] = ctx.encoder.decode(term_id)
        for position, aggregate in enumerate(query.aggregates):
            if position in per_aggregate:
                value = per_aggregate[position][group]
                if value is _AGG_ERROR:
                    continue
                row[aggregate.alias] = to_term(value)
            else:
                assert members_by_group is not None
                try:
                    row[aggregate.alias] = to_term(
                        _apply_aggregate(
                            aggregate, members_by_group[group], ctx.registry
                        )
                    )
                except EvaluationError:
                    pass  # aggregate error: alias stays unbound
        results.append(row)
    return results


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_tree(tree: AlgebraOp, ctx: ExecContext) -> Batch:
    """The vector row of the pipeline's engine table: the root batch."""
    batch = _execute(tree, ctx)
    if ctx.obs is not None:
        ctx.obs.metrics.counter("sparql.vector.result_rows").inc(batch.nrows)
    return batch


def execute_tree(
    tree: AlgebraOp,
    graph: Graph,
    registry,
    obs: Optional[Observability] = None,
    budget=None,
) -> "tuple[Batch, ExecContext]":
    """Execute a pre-built operator tree outside the pipeline (benches and
    tests that time execution apart from planning)."""
    ctx = ExecContext(graph, registry, obs, budget)
    return _execute(tree, ctx), ctx


def finish_select(
    query: SelectQuery, batch: Batch, ctx: ExecContext
) -> List[Bindings]:
    """Aggregation and solution modifiers, on arrays, in the spec order."""
    if query.is_aggregate:
        # Aggregate output is one row per group — small; the remaining
        # modifiers run on decoded rows through the shared helpers.
        return order_and_slice(
            query, _aggregate_vector(query, batch, ctx), ctx.registry
        )

    if query.order_by:
        batch = batch.take(_order_indices(query, batch, ctx))
    if query.variables:
        batch = batch.select(query.variables)
    if query.distinct:
        batch = distinct_rows(batch)
    if query.offset or query.limit is not None:
        batch = batch.slice(query.offset, query.limit)
    return _batch_solutions(batch, ctx)
