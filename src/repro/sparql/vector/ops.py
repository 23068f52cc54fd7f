"""Columnar physical operators: scans, hash joins, union, distinct.

A scan asks the graph for a pattern's rows (:meth:`Graph.id_rows`): its
constants prefix one of the graph's sorted orders, so the rows are one
range of it, found by binary search, plus the small delta's matches.
:func:`scan_table` masks any other id table — a dist partition's slice of
the SPO-sorted columns — and both project through one routine.

Joins are vectorized hash joins over term-id columns. SPARQL solution
compatibility must tolerate *unbound* cells (OPTIONAL misses, VALUES UNDEF):
two rows are compatible on a shared variable when either side is unbound or
both ids are equal. When no shared column carries an unbound cell — the
common case, checked with one ``min()`` per column — that is plain key
equality and the join is a single equi-join. Otherwise each side is
partitioned by its bound-mask over the shared variables (one bitmask per row
— in practice one or two distinct masks) and every mask pair runs an
equi-join on the columns both sides actually bind; surviving unbound cells
take the other side's value.

The equi-join itself packs the key columns into a single ``int64`` (mixed
radix over the id range, or over dense per-column ranks when that radix
would overflow 62 bits) and probes the sorted build side with
``searchsorted``, so the whole pipeline stays inside numpy. The build side
is sorted only if it is not already — scans come out subject-sorted — and a
build side with unique keys is probed once, without expanding match runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.rdf.graph import Graph, IdRows
from repro.rdf.term import Term
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.vector.batch import UNBOUND, Batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sparql.governor import QueryBudget


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

#: Parallel (subject, predicate, object) int64 id columns, one row per triple.
IdTable = IdRows


def id_table(graph: Graph) -> IdTable:
    """Every live row of the graph as an id table (the graph's own columns
    when it is compact: nothing is copied)."""
    return graph.id_columns()


def scan_table(
    table: IdTable,
    pattern: TriplePattern,
    term_id: Callable[[Term], Optional[int]],
) -> Batch:
    """The extent of a triple pattern within *table*, as id columns.

    *table* is any row subset of a graph's id rows — one dist partition of
    them, say — and *term_id* the graph's dictionary. Bound positions become
    equality masks: pure numpy, no per-triple Python iteration. Row order is
    the table's: scans feed multiset operators; ORDER BY sorts later.
    """
    positions = (pattern.subject, pattern.predicate, pattern.object)
    mask: Optional[np.ndarray] = None
    for slot, position in enumerate(positions):
        if isinstance(position, Variable):
            continue
        constant_id = term_id(position)
        if constant_id is None:
            # A constant the graph never interned cannot match anything.
            return Batch.empty(pattern.variables())
        hits = table[slot] == constant_id
        mask = hits if mask is None else (mask & hits)
    if mask is None:
        return _project(positions, table.__getitem__, len(table[0]))
    rows = np.flatnonzero(mask)
    return _project(positions, lambda slot: table[slot][rows], len(rows))


def _project(
    positions: Sequence,
    column_of: Callable[[int], np.ndarray],
    nrows: int,
) -> Batch:
    """The variable positions of *nrows* matched triples as a batch, the id
    column of position ``slot`` being ``column_of(slot)``. Matched triples
    are distinct, so an all-constant pattern comes out as the unit row or
    as nothing."""
    columns = {}
    keep: Optional[np.ndarray] = None
    for slot, variable in enumerate(positions):
        if not isinstance(variable, Variable):
            continue
        column = column_of(slot)
        if variable in columns:
            # Repeated variable in one pattern (?x :p ?x): keep equal rows.
            equal = columns[variable] == column
            keep = equal if keep is None else keep & equal
        else:
            columns[variable] = column
    batch = Batch(columns, nrows)
    if keep is not None:
        batch = batch.mask(keep)
    return batch


def scan_batch(graph: Graph, pattern: TriplePattern) -> Batch:
    """Materialize the full extent of a triple pattern as id columns: the
    graph answers from the sorted order its constants prefix (a subject's
    rows are one slice of the columns, a predicate's one range of a
    permutation), so no scan masks the whole table."""
    positions = (pattern.subject, pattern.predicate, pattern.object)
    query = tuple(None if isinstance(p, Variable) else p for p in positions)
    table = graph.id_rows(query)  # type: ignore[arg-type]
    return _project(positions, table.__getitem__, len(table[0]))


# ---------------------------------------------------------------------------
# Equi-join core
# ---------------------------------------------------------------------------

Columns = Sequence[np.ndarray]


def pack_keys(*sides: Columns) -> List[np.ndarray]:
    """Pack each side's k id columns into one int64 key per row.

    One mixed radix over the largest id on any side, so equal rows get equal
    keys across sides and key order is the rows' lexicographic order
    (UNBOUND, shifted to digit 0, sorts first — as it does in the raw
    columns). A single column is its own key. When k digits of that radix
    would not fit in 62 bits, the columns are renumbered densely instead
    (:func:`_rank_keys`), which keeps both properties.
    """
    k = len(sides[0])
    if k == 1:
        return [columns[0] for columns in sides]
    high = max(
        (int(column.max()) for columns in sides for column in columns
         if len(column)),
        default=0,
    )
    radix = high + 2  # digits are id + 1, in 0..high + 1
    if radix**k >= 2**62:
        return _rank_keys(sides)
    packed = []
    for columns in sides:
        keys = columns[0] + 1
        for column in columns[1:]:
            keys *= radix
            keys += column
            keys += 1
        packed.append(keys)
    return packed


def _rank_keys(sides: Sequence[Columns]) -> List[np.ndarray]:
    """:func:`pack_keys` over dense ranks: each key column is renumbered by
    its order among the values it takes on any side (``np.unique`` keeps
    order, so UNBOUND stays first) and folded into the key so far, which is
    ranked again. A rank is below the total row count n, so each fold fits
    in 62 bits for any n below 2**31."""
    lengths = [len(columns[0]) for columns in sides]
    keys = np.zeros(sum(lengths), dtype=np.int64)
    for column in zip(*sides):
        values, digits = np.unique(np.concatenate(column), return_inverse=True)
        _, keys = np.unique(keys * len(values) + digits, return_inverse=True)
    return np.split(keys, np.cumsum(lengths)[:-1])


def _equi_join_pairs(
    lcolumns: Columns,
    rcolumns: Columns,
    ln: int,
    rn: int,
    budget: Optional["QueryBudget"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (left_row, right_row) index pairs with equal, fully bound keys,
    left-major, each left row's matches in right-row order.

    The sides are given as parallel lists of key columns over *ln* and *rn*
    rows. The right (build) side is sorted only if its keys are not in order
    already, and when its keys are unique one ``searchsorted`` finds every
    match. With a *budget*, the output size is admitted **before** the pair
    arrays are allocated — the exact point where an adversarial
    cross-product would otherwise blow up memory — so a cap violation raises
    :class:`~repro.errors.QueryBudgetExceeded` while the only cost paid so
    far is one vector over the left rows.
    """
    empty = np.empty(0, dtype=np.int64)
    if ln == 0 or rn == 0:
        return empty, empty
    if not lcolumns:  # no key columns: cartesian product
        if budget is not None:
            budget.admit_rows(ln * rn, 2, "hash_join.cartesian")
        return (
            np.repeat(np.arange(ln, dtype=np.int64), rn),
            np.tile(np.arange(rn, dtype=np.int64), ln),
        )
    lkeys, rkeys = pack_keys(lcolumns, rcolumns)
    order: Optional[np.ndarray] = None
    if (rkeys[1:] < rkeys[:-1]).any():
        order = np.argsort(rkeys, kind="stable")
        rkeys = rkeys[order]
    unique = bool((rkeys[1:] != rkeys[:-1]).all())
    lo = np.searchsorted(rkeys, lkeys, side="left")
    if unique:  # at most one match per left row: the key at lo
        hit = rkeys[np.minimum(lo, rn - 1)] == lkeys
        total = int(np.count_nonzero(hit))
    else:
        counts = np.searchsorted(rkeys, lkeys, side="right") - lo
        total = int(counts.sum())
    if total == 0:
        return empty, empty
    if budget is not None:
        budget.admit_rows(total, 2, "hash_join.pairs")
    if unique:
        li = np.flatnonzero(hit)
        ri = lo[li]
    else:
        li = np.repeat(np.arange(ln, dtype=np.int64), counts)
        starts = np.repeat(lo, counts)
        # Within-match offsets: 0..count-1 per left row, built from one cumsum.
        boundaries = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - boundaries
        ri = starts + within
    return li, ri if order is None else order[ri]


# ---------------------------------------------------------------------------
# Solution-compatibility hash join
# ---------------------------------------------------------------------------

def hash_join(
    left: Batch,
    right: Batch,
    outer: bool = False,
    budget: Optional["QueryBudget"] = None,
) -> Batch:
    """Join two batches on their shared variables (inner or left-outer).

    When no shared column carries an UNBOUND cell on either side — one
    ``min()`` per column, and the case for every join of plain triple
    patterns — compatibility *is* key equality, and the batches go straight
    to one equi-join. Otherwise the rows are partitioned by bound-mask
    (:func:`_compatible_pairs`). Both emit the same pairs in the same order.

    With a *budget*: one checkpoint per equi-join — the build/probe loop —
    and the accumulated match count is admitted against the resident-row cap
    as it grows, with each equi-join's output pre-admitted before its pair
    arrays are allocated.
    """
    shared = [v for v in left.columns if v in right.columns]
    out_vars = list(left.columns) + [
        v for v in right.columns if v not in left.columns
    ]
    if left.nrows == 0:
        return Batch.empty(out_vars)
    if right.nrows == 0:
        if not outer:
            return Batch.empty(out_vars)
        li = np.arange(left.nrows, dtype=np.int64)
        return _assemble(left, right, li, None, out_vars, shared)

    width = max(1, len(out_vars))
    lcolumns = [left.columns[v] for v in shared]
    rcolumns = [right.columns[v] for v in shared]
    if all(int(column.min()) > UNBOUND for column in lcolumns + rcolumns):
        if budget is not None:
            budget.checkpoint("hash_join")
        li, ri = _equi_join_pairs(
            lcolumns, rcolumns, left.nrows, right.nrows, budget
        )
        if budget is not None and len(li):
            budget.admit_rows(len(li), width, "hash_join")
        # Every shared cell is bound: the left value is the joined value.
        joined = _assemble(left, right, li, ri, out_vars, ())
    else:
        li, ri = _compatible_pairs(lcolumns, rcolumns, width, budget)
        joined = _assemble(left, right, li, ri, out_vars, shared)
    if not outer:
        return joined
    matched = np.zeros(left.nrows, dtype=bool)
    matched[li] = True
    if matched.all():
        return joined
    rest = np.nonzero(~matched)[0]
    bare = _assemble(left, right, rest, None, out_vars, shared)
    return Batch.concat([joined, bare])


def _compatible_pairs(
    lcolumns: Columns,
    rcolumns: Columns,
    width: int,
    budget: Optional["QueryBudget"],
) -> Tuple[np.ndarray, np.ndarray]:
    """Compatible row pairs when shared columns carry UNBOUND cells.

    Each side is partitioned by its bound-mask over the shared variables;
    every (left mask, right mask) pair is one equi-join on the columns both
    masks bind.
    """
    left_keys = np.column_stack(lcolumns)
    right_keys = np.column_stack(rcolumns)
    left_bound = left_keys != UNBOUND
    right_bound = right_keys != UNBOUND

    left_masks = _mask_codes(left_bound)
    right_masks = _mask_codes(right_bound)
    li_parts: List[np.ndarray] = []
    ri_parts: List[np.ndarray] = []
    matched_rows = 0
    for lcode in np.unique(left_masks):
        lrows = np.nonzero(left_masks == lcode)[0]
        lbits = left_bound[lrows[0]]
        for rcode in np.unique(right_masks):
            if budget is not None:
                budget.checkpoint("hash_join")
            rrows = np.nonzero(right_masks == rcode)[0]
            rbits = right_bound[rrows[0]]
            key_columns = np.nonzero(lbits & rbits)[0]
            li_sub, ri_sub = _equi_join_pairs(
                [left_keys[lrows, c] for c in key_columns],
                [right_keys[rrows, c] for c in key_columns],
                len(lrows),
                len(rrows),
                budget,
            )
            if len(li_sub):
                li_parts.append(lrows[li_sub])
                ri_parts.append(rrows[ri_sub])
                matched_rows += len(li_sub)
                if budget is not None:
                    budget.admit_rows(matched_rows, width, "hash_join")
    if not li_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(li_parts), np.concatenate(ri_parts)


def _mask_codes(bound: np.ndarray) -> np.ndarray:
    """Per-row bitmask codes over the shared-variable bound flags."""
    if bound.shape[1] == 0:
        return np.zeros(len(bound), dtype=np.int64)
    weights = (1 << np.arange(bound.shape[1], dtype=np.int64))
    return bound.astype(np.int64) @ weights


def _assemble(
    left: Batch,
    right: Batch,
    li: np.ndarray,
    ri: Optional[np.ndarray],
    out_vars: Sequence[Variable],
    shared: Sequence[Variable],
) -> Batch:
    """Build the output batch from matched row-index pairs.

    ``ri is None`` means "no right match" (outer-join padding): right-only
    columns fill UNBOUND and shared columns keep the left value.
    """
    shared_set = set(shared)
    columns = {}
    for variable in out_vars:
        if variable in left.columns:
            values = left.columns[variable][li]
            if ri is not None and variable in shared_set:
                right_values = right.columns[variable][ri]
                values = np.where(values != UNBOUND, values, right_values)
            columns[variable] = values
        elif ri is not None:
            columns[variable] = right.columns[variable][ri]
        else:
            columns[variable] = np.full(len(li), UNBOUND, dtype=np.int64)
    return Batch(columns, len(li))


# ---------------------------------------------------------------------------
# Distinct
# ---------------------------------------------------------------------------

def distinct_rows(batch: Batch) -> Batch:
    """Drop duplicate rows, keeping the first occurrence of each."""
    if batch.nrows == 0 or not batch.columns:
        return batch.slice(0, 1) if batch.nrows else batch
    (keys,) = pack_keys(list(batch.columns.values()))
    _, first = np.unique(keys, return_index=True)
    return batch.take(np.sort(first))
