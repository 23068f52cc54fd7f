"""Physical planning: vector algebra trees -> stages joined by exchanges.

A plan is a :class:`Stage`: an operator run by one task per unit, whose
inputs are :class:`Exchange` edges — ``gather`` ships a child's whole
relation to every task, ``split`` hands each task one fragment, ``shuffle``
one hash bucket. Each input's ``stage.op`` sits inside ``op`` by identity: a
task runs the vector engine's own ``_execute`` on ``op`` with its inputs
planted by ``id``. A stage's fragments are a disjoint multiset cover of the
relation of its ``op``.

The store range-partitions the id rows by *subject*. A subtree is *aligned*
on a key when the key decides which partition each of its rows comes from:
a ``ScanOp`` on its subject (a constant pins one partition); FILTER and BIND
on their operand's key; an uncorrelated join of two sides aligned on one key
(bound in every row of both, so every compatible pair and every OPTIONAL miss
is decided inside one partition); and a join of an aligned side with a side
estimated at no more than ``broadcast_threshold_rows``, which is *gathered*
(exact: compatibility is row-local; a LeftJoin gathers only its optional
side). An aligned subtree is a *keyed* stage: a task per partition its key
reaches, every input ``gather``. The stages without a key are a broadcast
join (a ``split`` big side by ``Graph.count`` estimate — a LeftJoin's left —
and a ``gather`` small side), a shuffle join (two ``shuffle`` inputs on the
shared variables *definitely bound* on both sides: an UNBOUND cell is
compatible with every key, which no bucketing preserves), a UNION (every
input ``split``, no task of its own; a FILTER or BIND above it goes into
every branch) and a driver-side task (no inputs: VALUES, empty leaves,
correlated joins). A FILTER or BIND above a join rides inside its tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterator, Optional, Tuple, Union

from repro.errors import SPARQLError
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
    operator_variables,
)
from repro.sparql.ast import Variable
from repro.sparql.vector.cost import (
    correlation_variables,
    definitely_bound,
    pattern_extent,
)

#: What decides an aligned subtree's partition: a subject variable or term.
Key = Union[Variable, Term]


@dataclass
class Stage:
    """``op`` once per unit: each partition ``key`` reaches, else each
    fragment of the ``split`` input or bucket of the ``shuffle`` ones, else
    (no inputs) once on the driver."""

    op: AlgebraOp
    key: Optional[Key] = None
    inputs: Tuple["Exchange", ...] = ()

    @property
    def kinds(self) -> FrozenSet[str]:
        return frozenset(exchange.kind for exchange in self.inputs)


@dataclass
class Exchange:
    """How ``stage``'s rows reach the tasks of the stage that reads them:
    ``gather`` (whole, to every task), ``split`` (a fragment per task) or
    ``shuffle`` (hash bucket per task on ``keys``, ``buckets`` of them)."""

    kind: str
    stage: Stage
    keys: Tuple[Variable, ...] = ()
    buckets: int = 1


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

def estimate_rows(op: AlgebraOp, graph: Graph) -> float:
    """Cheap cardinality estimate from the E22 index statistics.

    A join on shared variables is estimated at its larger input (a
    key/foreign-key join); only a cross product multiplies.
    """
    if isinstance(op, ScanOp):
        return float(pattern_extent(op.pattern, graph))
    if isinstance(op, (JoinOp, LeftJoinOp)):
        left = estimate_rows(op.left, graph)
        right = estimate_rows(op.right, graph)
        if operator_variables(op.left) & operator_variables(op.right):
            inner = max(left, right)
        else:
            inner = left * right
        if isinstance(op, LeftJoinOp):
            return max(left, inner)
        return max(1.0, inner)
    if isinstance(op, UnionOp):
        return sum(estimate_rows(operand, graph) for operand in op.operands)
    if isinstance(op, FilterOp):
        return max(1.0, estimate_rows(op.operand, graph) * 0.5)
    if isinstance(op, ExtendOp):
        return estimate_rows(op.operand, graph)
    if isinstance(op, TableOp):
        return float(len(op.rows))
    if isinstance(op, EmptyOp):
        return 1.0
    raise SPARQLError(f"unknown operator {type(op).__name__}")


def _correlated(op: AlgebraOp) -> bool:
    """Whether a join's right side reads the left's bindings: the vector
    engine's dependent join, which runs as one driver-side task."""
    return bool(correlation_variables(op.right) & operator_variables(op.left))


def stage_ops(stage: Stage) -> Iterator[AlgebraOp]:
    """The operators a stage's tasks run: its ``op`` but the planted ones."""
    planted = {id(exchange.stage.op) for exchange in stage.inputs}
    pending = [stage.op]
    while pending:
        op = pending.pop()
        if id(op) in planted:
            continue
        yield op
        if isinstance(op, (JoinOp, LeftJoinOp)):
            pending += [op.left, op.right]
        elif isinstance(op, (FilterOp, ExtendOp)):
            pending.append(op.operand)


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def build_plan(
    op: AlgebraOp,
    graph: Graph,
    broadcast_threshold_rows: float,
    shuffle_buckets: int,
) -> Stage:
    """Map one vector algebra tree onto a distributed physical plan,
    bottom-up: every operator's stage is built from its children's."""

    def plan(op: AlgebraOp) -> Stage:
        if isinstance(op, ScanOp):
            return Stage(op, op.pattern.subject)
        if isinstance(op, (FilterOp, ExtendOp)):
            return row_local(op, plan(op.operand))
        if isinstance(op, UnionOp):
            branches = [plan(operand) for operand in op.operands]
            if all(_on_driver(branch) for branch in branches):
                return Stage(op)
            return _union(op, branches)
        if isinstance(op, (JoinOp, LeftJoinOp)):
            if _correlated(op):
                return Stage(op)
            return join(op, plan(op.left), plan(op.right))
        if isinstance(op, (TableOp, EmptyOp)):
            return Stage(op)
        raise SPARQLError(f"unknown operator {type(op).__name__}")

    def row_local(op: AlgebraOp, child: Stage) -> Stage:
        if child.kinds != {"split"}:
            # Keeps the child's key, or rides inside its tasks.
            return replace(child, op=op)
        # Through a UNION: the same rows survive, or get the same binding,
        # in whichever branch they come from.
        return _union(op, [
            row_local(replace(op, operand=branch.stage.op), branch.stage)
            for branch in child.inputs
        ])

    def join(op: AlgebraOp, left: Stage, right: Stage) -> Stage:
        if _on_driver(left) and _on_driver(right):
            return Stage(op)
        if left.key is not None and right.key is not None and left.key == right.key:
            return Stage(op, left.key, left.inputs + right.inputs)
        est_left = estimate_rows(op.left, graph)
        est_right = estimate_rows(op.right, graph)
        # (estimate of the side to gather, the aligned side, the side to gather)
        candidates = []
        if left.key is not None:
            candidates.append((est_right, left, right))
        if right.key is not None and isinstance(op, JoinOp):
            candidates.append((est_left, right, left))
        small = [c for c in candidates if c[0] <= broadcast_threshold_rows]
        if small:
            _, aligned, side = min(small, key=lambda c: c[0])
            gather = Exchange("gather", side)
            return Stage(op, aligned.key, aligned.inputs + (gather,))
        if isinstance(op, LeftJoinOp):
            # Outer padding needs the complete right relation at every left
            # fragment: always broadcast the optional side.
            return _broadcast(op, left, right)
        shared = operator_variables(op.left) & operator_variables(op.right)
        bound = definitely_bound(op.left) & definitely_bound(op.right)
        big = min(est_left, est_right) > broadcast_threshold_rows
        if shared and shared <= bound and big:
            keys = tuple(sorted(shared, key=lambda v: v.name))
            return Stage(op, inputs=tuple(
                Exchange("shuffle", side, keys, shuffle_buckets)
                for side in (left, right)
            ))
        if est_right <= est_left:
            return _broadcast(op, left, right)
        return _broadcast(op, right, left)

    return plan(op)


def _on_driver(stage: Stage) -> bool:
    """A stage with neither key nor inputs: one driver-side task."""
    return stage.key is None and not stage.inputs


def _broadcast(op: AlgebraOp, big: Stage, small: Stage) -> Stage:
    return Stage(op, inputs=(Exchange("split", big), Exchange("gather", small)))


def _union(op: AlgebraOp, branches) -> Stage:
    return Stage(op, inputs=tuple(Exchange("split", b) for b in branches))


def plan_shape(stage: Stage) -> str:
    """Compact s-expression of the physical plan, for tests and logs."""
    inner = ", ".join(plan_shape(exchange.stage) for exchange in stage.inputs)
    if stage.key is not None:
        if isinstance(stage.op, ScanOp):
            return "scan"
        key = str(stage.key) if isinstance(stage.key, Variable) else stage.key.n3()
        return f"stage[{key}]" + (f"({inner})" if inner else "")
    if not stage.inputs:
        return f"local[{type(stage.op).__name__}]"
    if "shuffle" in stage.kinds:
        keys = ",".join(f"?{v.name}" for v in stage.inputs[0].keys)
        return f"shuffle[{keys}]({inner})"
    if stage.kinds == {"split"}:
        return f"union({inner})"
    join = stage.op
    while isinstance(join, (FilterOp, ExtendOp)):
        join = join.operand
    kind = "bcast-outer" if isinstance(join, LeftJoinOp) else "bcast"
    return f"{kind}({inner})"
