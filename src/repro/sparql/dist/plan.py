"""Physical planning: vector algebra trees -> distributable stage DAGs.

The store range-partitions the id rows by *subject*, so a scan's every row
lives in its subject's partition. A subtree is *aligned* on a key when the
key decides which partition each of its rows comes from:

* a ``ScanOp`` on its subject variable (a constant subject pins one
  partition); FILTER and BIND on their operand's key — they are row-local;
* an uncorrelated Join or LeftJoin of two sides aligned on the same key, on
  that key: it is bound in every row of both sides, so every compatible
  pair, and every OPTIONAL miss, is decided inside one partition;
* a join of an aligned side with a side estimated at no more than
  ``broadcast_threshold_rows``, on the aligned side's key: the small side is
  *gathered* once and shipped whole to every task, exact because solution
  compatibility is row-local. For a LeftJoin only the optional side may be
  gathered — padding a left row needs the whole right relation.

Every node's *fragments* are a disjoint multiset cover of the relation of
its ``op``. An aligned subtree is a :class:`PStage`: one task per partition
its key reaches, running the vector engine's own ``_execute`` on that
partition's rows with the gathered subtrees planted. :class:`PLocal` is one
driver-side ``_execute`` (VALUES and empty leaves, correlated joins);
:class:`PUnion` concatenates, a FILTER or BIND above it pushed into every
branch. Unaligned joins stay :class:`PBroadcastJoin` (small side by
``Graph.count`` estimate, or the optional side) or :class:`PShuffleJoin`
(hash-repartitioned on shared variables *definitely bound* on both sides:
an UNBOUND cell is compatible with every key, which no bucketing
preserves); each task runs the join's ``op``, any FILTER/BIND above the
join included, with its two inputs planted. Rows move only at a gather,
the final gather, and a shuffle on a key the store is not partitioned by.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple, Union

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
class PNode:
    """A distributed plan node; its fragments cover the relation of ``op``."""

    op: AlgebraOp


@dataclass
class PLocal(PNode):
    """Driver-side vector execution of a whole subtree (one fragment)."""


@dataclass
class PStage(PNode):
    """``op`` once per partition ``key`` reaches, the ``gathers`` planted."""

    key: Key
    gathers: Tuple[PNode, ...] = ()


@dataclass
class PUnion(PNode):
    """Fragment-list concatenation of the children."""

    children: List[PNode]


@dataclass
class PBroadcastJoin(PNode):
    """``op`` once per ``big`` fragment, with the gathered ``small`` side."""

    big: PNode
    small: PNode


@dataclass
class PShuffleJoin(PNode):
    """``op`` once per hash bucket of both sides on the shared ``keys``."""

    left: PNode
    right: PNode
    keys: Tuple[Variable, ...]
    buckets: int = 4


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
    return float(max(len(graph), 1))


def _correlated(op: AlgebraOp) -> bool:
    """Whether a join's right side reads the left's bindings: the vector
    engine's dependent join, which runs driver-side as one ``PLocal``."""
    return bool(correlation_variables(op.right) & operator_variables(op.left))


def _distributable(op: AlgebraOp) -> bool:
    """Whether *op* has a fragment-parallel plan (else it runs as PLocal)."""
    if isinstance(op, ScanOp):
        return True
    if isinstance(op, (JoinOp, LeftJoinOp)):
        if _correlated(op):
            return False
        return _distributable(op.left) or _distributable(op.right)
    if isinstance(op, UnionOp):
        return any(_distributable(operand) for operand in op.operands)
    if isinstance(op, (FilterOp, ExtendOp)):
        return _distributable(op.operand)
    return False


def _aligned(
    op: AlgebraOp, graph: Graph, threshold: float
) -> Optional[Tuple[Key, Tuple[AlgebraOp, ...]]]:
    """The key *op* is aligned on and the subtrees its stage gathers, or
    None when *op* is not aligned (see the module docstring)."""
    if isinstance(op, ScanOp):
        return op.pattern.subject, ()
    if isinstance(op, (FilterOp, ExtendOp)):
        return _aligned(op.operand, graph, threshold)
    if not isinstance(op, (JoinOp, LeftJoinOp)) or _correlated(op):
        return None
    left = _aligned(op.left, graph, threshold)
    right = _aligned(op.right, graph, threshold)
    if left is not None and right is not None and left[0] == right[0]:
        return left[0], left[1] + right[1]
    # (estimate of the side to gather, the aligned side, the side to gather)
    candidates = []
    if left is not None:
        candidates.append((estimate_rows(op.right, graph), left, op.right))
    if right is not None and isinstance(op, JoinOp):
        candidates.append((estimate_rows(op.left, graph), right, op.left))
    small = [c for c in candidates if c[0] <= threshold]
    if not small:
        return None
    _, (key, gathers), side = min(small, key=lambda c: c[0])
    return key, gathers + (side,)


def stage_ops(node: PStage) -> Iterator[AlgebraOp]:
    """The operators a stage's tasks run: its ``op`` but the gathered ones."""
    planted = {id(gather.op) for gather in node.gathers}
    pending = [node.op]
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
) -> PNode:
    """Map one vector algebra tree onto a distributed physical plan."""

    def plan(sub: AlgebraOp) -> PNode:
        return build_plan(sub, graph, broadcast_threshold_rows, shuffle_buckets)

    if not _distributable(op):
        return PLocal(op)
    aligned = _aligned(op, graph, broadcast_threshold_rows)
    if aligned is not None:
        key, gathered = aligned
        return PStage(op, key, tuple(plan(side) for side in gathered))
    if isinstance(op, UnionOp):
        return PUnion(op, [plan(operand) for operand in op.operands])
    if isinstance(op, (FilterOp, ExtendOp)):
        child = plan(op.operand)
        if isinstance(child, PUnion):
            # Row-local: the same rows survive, or get the same binding, in
            # whichever branch they come from.
            return PUnion(
                op,
                [plan(replace(op, operand=branch.op)) for branch in child.children],
            )
        return replace(child, op=op)  # rides inside the join's tasks
    left, right = plan(op.left), plan(op.right)
    if isinstance(op, LeftJoinOp):
        # Outer padding needs the complete right relation at every left
        # fragment: always broadcast the optional side.
        return PBroadcastJoin(op, left, right)
    est_left = estimate_rows(op.left, graph)
    est_right = estimate_rows(op.right, graph)
    shared = operator_variables(op.left) & operator_variables(op.right)
    bound = definitely_bound(op.left) & definitely_bound(op.right)
    big = min(est_left, est_right) > broadcast_threshold_rows
    if shared and shared <= bound and big:
        keys = tuple(sorted(shared, key=lambda v: v.name))
        return PShuffleJoin(op, left, right, keys=keys, buckets=shuffle_buckets)
    if est_right <= est_left:
        return PBroadcastJoin(op, left, right)
    return PBroadcastJoin(op, right, left)


def plan_shape(node: PNode) -> str:
    """Compact s-expression of the physical plan, for tests and logs."""
    if isinstance(node, PStage):
        if isinstance(node.op, ScanOp):
            return "scan"
        key = str(node.key) if isinstance(node.key, Variable) else node.key.n3()
        gathers = ", ".join(plan_shape(g) for g in node.gathers)
        return f"stage[{key}]" + (f"({gathers})" if gathers else "")
    if isinstance(node, PLocal):
        return f"local[{type(node.op).__name__}]"
    if isinstance(node, PUnion):
        return f"union({', '.join(plan_shape(c) for c in node.children)})"
    if isinstance(node, PBroadcastJoin):
        join = node.op
        while isinstance(join, (FilterOp, ExtendOp)):
            join = join.operand
        kind = "bcast-outer" if isinstance(join, LeftJoinOp) else "bcast"
        return f"{kind}({plan_shape(node.big)}, {plan_shape(node.small)})"
    if isinstance(node, PShuffleJoin):
        keys = ",".join(f"?{v.name}" for v in node.keys)
        return f"shuffle[{keys}]({plan_shape(node.left)}, {plan_shape(node.right)})"
    return type(node).__name__
