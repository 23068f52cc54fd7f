"""Physical planning: vector algebra trees -> distributable stage DAGs.

The planner maps the cost-ordered E22 operator tree onto five physical
shapes, chosen so that every node's output *fragments* are a disjoint
multiset cover of its relation (each solution row lives in exactly one
fragment — the invariant all the join strategies lean on):

* :class:`PScan` — one partition-local scan fragment per store partition;
* :class:`PLocal` — a single driver-side fragment via the vector engine's
  own ``_execute`` (VALUES/empty leaves, and joins with expression/OPTIONAL
  correlation where substitution semantics force the engines' shared
  fallback);
* :class:`PMap` — a per-fragment FILTER/BIND, no data movement;
* :class:`PBroadcastJoin` — the small side (below
  ``broadcast_threshold_rows``, judged from ``Graph.count`` statistics) is
  gathered and shipped whole to every fragment of the big side. Per-fragment
  ``hash_join`` is exact here because SPARQL solution compatibility is
  row-local: each big-side row meets the *complete* other relation.
  LeftJoin always broadcasts its right side — outer padding of a left row
  is only decidable against the whole right relation;
* :class:`PShuffleJoin` — both sides repartitioned by a fixed-radix hash of
  the shared variables. Only legal when every shared variable is
  *definitely bound* on both sides (:func:`definitely_bound`): an UNBOUND
  cell is compatible with every key, which no hash bucketing preserves.

``PUnion`` concatenates children's fragment lists without moving a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

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
    operator_variables,
)
from repro.sparql.ast import Variable
from repro.sparql.vector.cost import (
    correlation_variables,
    definitely_bound,
    pattern_extent,
)


class PNode:
    """Base class for distributed plan nodes."""


@dataclass
class PScan(PNode):
    """Partition-local scan of one triple pattern."""

    op: ScanOp


@dataclass
class PLocal(PNode):
    """Driver-side vector execution of a whole subtree (one fragment)."""

    op: AlgebraOp


@dataclass
class PMap(PNode):
    """Per-fragment FILTER or BIND over the child's fragments."""

    child: PNode
    op: AlgebraOp  # FilterOp or ExtendOp, applied to each fragment


@dataclass
class PUnion(PNode):
    """Fragment-list concatenation of the children."""

    children: List[PNode]


@dataclass
class PBroadcastJoin(PNode):
    """Join each ``big`` fragment against the gathered ``small`` relation.

    ``small_is_left`` records which side the small relation is in the
    original algebra (it decides hash_join argument order; for LeftJoin the
    small side is always the right/optional one).
    """

    big: PNode
    small: PNode
    outer: bool = False
    small_is_left: bool = False


@dataclass
class PShuffleJoin(PNode):
    """Hash-repartitioned join on definitely-bound shared variables."""

    left: PNode
    right: PNode
    keys: Tuple[Variable, ...]
    buckets: int = 4


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

def estimate_rows(op: AlgebraOp, graph: Graph) -> float:
    """Cheap cardinality estimate from the E22 index statistics."""
    if isinstance(op, ScanOp):
        return float(pattern_extent(op.pattern, graph))
    if isinstance(op, (JoinOp, LeftJoinOp)):
        left = estimate_rows(op.left, graph)
        right = estimate_rows(op.right, graph)
        shared = operator_variables(op.left) & operator_variables(op.right)
        if shared:
            inner = left * right / float(max(len(graph), 1))
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


def _distributable(op: AlgebraOp) -> bool:
    """Whether *op* has a fragment-parallel plan (else it runs as PLocal)."""
    if isinstance(op, ScanOp):
        return True
    if isinstance(op, (JoinOp, LeftJoinOp)):
        if correlation_variables(op.right) & operator_variables(op.left):
            # The vector engine's own substitution-semantics fallback.
            return False
        return _distributable(op.left) or _distributable(op.right)
    if isinstance(op, UnionOp):
        return any(_distributable(operand) for operand in op.operands)
    if isinstance(op, (FilterOp, ExtendOp)):
        return _distributable(op.operand)
    return False


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
    if not _distributable(op):
        return PLocal(op)
    if isinstance(op, ScanOp):
        return PScan(op)
    if isinstance(op, (FilterOp, ExtendOp)):
        child = build_plan(
            op.operand, graph, broadcast_threshold_rows, shuffle_buckets
        )
        if isinstance(child, PLocal):
            return PLocal(op)
        return PMap(child, op)
    if isinstance(op, UnionOp):
        return PUnion(
            [
                build_plan(
                    operand, graph, broadcast_threshold_rows, shuffle_buckets
                )
                for operand in op.operands
            ]
        )
    if isinstance(op, (JoinOp, LeftJoinOp)):
        outer = isinstance(op, LeftJoinOp)
        left = build_plan(
            op.left, graph, broadcast_threshold_rows, shuffle_buckets
        )
        right = build_plan(
            op.right, graph, broadcast_threshold_rows, shuffle_buckets
        )
        if outer:
            # Outer padding needs the complete right relation at every
            # left fragment: always broadcast the optional side.
            return PBroadcastJoin(left, right, outer=True, small_is_left=False)
        est_left = estimate_rows(op.left, graph)
        est_right = estimate_rows(op.right, graph)
        shared = tuple(
            sorted(
                operator_variables(op.left) & operator_variables(op.right),
                key=lambda v: v.name,
            )
        )
        bound_ok = shared and (
            set(shared) <= definitely_bound(op.left)
            and set(shared) <= definitely_bound(op.right)
        )
        if bound_ok and min(est_left, est_right) > broadcast_threshold_rows:
            return PShuffleJoin(left, right, keys=shared, buckets=shuffle_buckets)
        if est_right <= est_left:
            return PBroadcastJoin(left, right, outer=False, small_is_left=False)
        return PBroadcastJoin(right, left, outer=False, small_is_left=True)
    return PLocal(op)


def plan_shape(node: PNode) -> str:
    """Compact s-expression of the physical plan, for tests and logs."""
    if isinstance(node, PScan):
        return "scan"
    if isinstance(node, PLocal):
        return f"local[{type(node.op).__name__}]"
    if isinstance(node, PMap):
        return f"map[{type(node.op).__name__}]({plan_shape(node.child)})"
    if isinstance(node, PUnion):
        return f"union({', '.join(plan_shape(c) for c in node.children)})"
    if isinstance(node, PBroadcastJoin):
        kind = "bcast-outer" if node.outer else "bcast"
        return f"{kind}({plan_shape(node.big)}, {plan_shape(node.small)})"
    if isinstance(node, PShuffleJoin):
        keys = ",".join(f"?{v.name}" for v in node.keys)
        return f"shuffle[{keys}]({plan_shape(node.left)}, {plan_shape(node.right)})"
    return type(node).__name__
