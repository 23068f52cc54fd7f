"""Columnar physical operators: scans, hash joins, union, distinct.

A scan asks the graph for a pattern's rows (:meth:`Graph.id_rows`): its
constants prefix one of the graph's sorted orders, so the rows are one
range of it, found by binary search, plus the small delta's matches, and
its variables' columns are slices of that order's own columns. A dist
partition is a subject-id range, and its scan is the same call narrowed to
that range by two more binary searches.

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
would overflow 62 bits), so the whole pipeline stays inside numpy. Term ids
are dense — the graph numbers its terms ``0 .. term_count - 1`` and a query
numbers its own terms on from there — so a key's offset from the smallest
build key can address a table directly. When the build keys' span is small
against the input and such a table costs less than binary search, a slot
table (unique build keys) or per-key counts and run starts (duplicates)
over the span are probed with one ``take``; duplicate keys are grouped by a
stable radix sort on 16-bit digits, which numpy runs in O(n). Otherwise —
small inputs, sparse spans such as packed multi-column keys — the build
side is sorted (only if it is not already: scans come out subject-sorted)
and probed with ``searchsorted``. Both paths emit the same pairs in the
same order, and a build side with unique keys is probed once, without
expanding match runs. :func:`distinct_rows` and GROUP BY group packed keys
the same way: a presence table over a dense span, ``np.unique`` otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.rdf.graph import Graph, IdRows
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


def scan_batch(
    graph: Graph,
    pattern: TriplePattern,
    subjects: Optional[Tuple[int, int]] = None,
) -> Batch:
    """Materialize the extent of a triple pattern as id columns, or only
    its rows whose subject id lies in ``[first, last)`` of *subjects* (a
    dist partition). The graph answers from the sorted order its constants
    prefix (a subject's rows are one slice of the columns, a predicate's
    one range of its orders), with slices of the wildcard columns only, so
    no scan masks or gathers the whole table. Matched triples are distinct,
    so an all-constant pattern comes out as the unit row or as nothing."""
    positions = (pattern.subject, pattern.predicate, pattern.object)
    query = tuple(None if isinstance(p, Variable) else p for p in positions)
    table, nrows = graph.id_rows(query, subjects)  # type: ignore[arg-type]
    columns = {}
    keep: Optional[np.ndarray] = None
    for variable, column in zip(positions, table):
        if column is None:
            continue
        if variable in columns:
            # Repeated variable in one pattern (?x :p ?x): keep equal rows.
            equal = columns[variable] == column
            keep = equal if keep is None else keep & equal
        else:
            columns[variable] = column
    batch = Batch(columns, nrows)
    return batch if keep is None else batch.mask(keep)


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


#: Below this many input rows (both sides of a join, or the rows of a
#: grouping) the sorted path runs: it makes fewer numpy calls, and under
#: ~2k rows that fixed cost outweighs what a table saves.
DENSE_MIN_ROWS = 2048
#: A direct-address table has at most this many slots per input row, so its
#: memory stays O(input); a sparser key span takes the sorted path.
DENSE_SLOTS_PER_ROW = 4
#: One binary-search step of the sorted path costs about this many table
#: slots of the dense one.
SEARCH_STEP_SLOTS = 2


def _dense_span(lkeys: np.ndarray, rkeys: np.ndarray, ordered: bool):
    """``(low, span)`` of the build keys when a direct-address table over
    them is cheaper than the sorted path, else None.

    The table costs O(span + rn + ln) slots; the sorted path O(ln log rn)
    search steps for the probe, plus O(rn log rn) to sort an unsorted build
    side.
    """
    ln, rn = len(lkeys), len(rkeys)
    if ln + rn < DENSE_MIN_ROWS:
        return None
    if ordered:
        low, high = int(rkeys[0]), int(rkeys[-1])
    else:
        low, high = int(rkeys.min()), int(rkeys.max())
    span = high - low + 1
    if span > DENSE_SLOTS_PER_ROW * (ln + rn):
        return None
    steps = rn.bit_length() * (ln if ordered else ln + rn)
    if span + ln + rn > SEARCH_STEP_SLOTS * steps:
        return None
    return low, span


def _sorted_matches(lkeys: np.ndarray, rkeys: np.ndarray, ordered: bool):
    """``(order, unique, at, found)`` by binary search on the sorted build
    keys: *order* sorts the build side (None if it already is); for unique
    build keys *at* is each left row's match position and *found* whether it
    has one, otherwise *at* is the start of its run of matches and *found*
    the run length. Positions index the sorted build side."""
    order: Optional[np.ndarray] = None
    if not ordered:
        order = np.argsort(rkeys, kind="stable")
        rkeys = rkeys[order]
    lo = np.searchsorted(rkeys, lkeys, side="left")
    if (rkeys[1:] != rkeys[:-1]).all():
        return order, True, lo, rkeys[np.minimum(lo, len(rkeys) - 1)] == lkeys
    return order, False, lo, np.searchsorted(rkeys, lkeys, side="right") - lo


def _dense_matches(
    lkeys: np.ndarray, rkeys: np.ndarray, ordered: bool, low: int, span: int
):
    """:func:`_sorted_matches` from one direct-address table over the build
    keys' span ``low .. low + span - 1``, probed with one ``take`` per left
    row: no comparison sort, no binary search.

    The table first holds each key's right row; if no two right rows share
    a key, that is the answer (*order* None, *at* the right row itself).
    Otherwise it is rebuilt as per-key counts whose running sum gives each
    run's start, and an unsorted build side is grouped by a stable radix
    sort of its span offsets. A left key outside the span probes the extra
    slot ``span``, which holds no match.
    """
    rel = rkeys - low
    # Negative offsets wrap to huge unsigned values: one minimum clamps both
    # ends of the span onto the miss slot.
    probe = np.minimum((lkeys - low).view(np.uint64), span).view(np.int64)
    rows = np.arange(len(rkeys), dtype=np.int64)
    slots = np.full(span + 1, -1, dtype=np.int64)
    slots[rel] = rows
    if (slots.take(rel) == rows).all():  # every right row kept its slot
        at = slots.take(probe)
        return None, True, at, at >= 0
    del slots
    counts = np.bincount(rel, minlength=span + 1)
    found = counts.take(probe)
    starts = np.cumsum(counts, out=counts).take(probe) - found
    order = None if ordered else _radix_order(rel, span)
    return order, False, starts, found


def _radix_order(offsets: np.ndarray, span: int) -> np.ndarray:
    """The stable order of *offsets* (each in ``0 .. span - 1``): an LSD
    radix sort, one stable ``uint16`` argsort per 16-bit digit — numpy sorts
    16-bit integers by radix, in O(n)."""
    order = np.argsort((offsets & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (span - 1) >> shift:
        digit = ((offsets[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


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
    rows. Matches come from direct-address tables over the build keys' span
    when :func:`_dense_span` finds that cheaper, else from binary search on
    the build keys, sorted only if they are not in order already; either
    way a build side with unique keys is probed once, without expanding
    match runs. With a *budget*, the output size is admitted **before** the
    pair arrays are allocated — the exact point where an adversarial
    cross-product would otherwise blow up memory — so a cap violation raises
    :class:`~repro.errors.QueryBudgetExceeded` while the only cost paid so
    far is O(input): vectors over the left rows and, on the dense path, one
    table over the build keys' span.
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
    ordered = not (rkeys[1:] < rkeys[:-1]).any()
    dense = _dense_span(lkeys, rkeys, ordered)
    if dense is None:
        order, unique, at, found = _sorted_matches(lkeys, rkeys, ordered)
    else:
        order, unique, at, found = _dense_matches(lkeys, rkeys, ordered, *dense)
    total = int(np.count_nonzero(found) if unique else found.sum())
    if total == 0:
        return empty, empty
    if budget is not None:
        budget.admit_rows(total, 2, "hash_join.pairs")
    if unique:  # at most one match per left row
        li = np.flatnonzero(found)
        ri = at[li]
    else:
        li = np.repeat(np.arange(ln, dtype=np.int64), found)
        starts = np.repeat(at, found)
        # Within-match offsets: 0..count-1 per left row, built from one cumsum.
        boundaries = np.repeat(np.cumsum(found) - found, found)
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

def unique_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """``np.unique(keys, return_index=True, return_inverse=True)``'s first
    occurrences and inverse, plus the group count: groups in key order,
    each group's first row, each row's group.

    Keys over a dense span are grouped by :func:`_dense_groups`, without a
    sort; the rest by ``np.unique``.
    """
    dense = _dense_groups(keys)
    if dense is not None:
        return dense
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.astype(np.int64), len(first)


def _dense_groups(keys: np.ndarray):
    """:func:`unique_keys` from a presence table over the keys' span —
    ``cumsum`` ranks the keys present, one ``minimum.at`` finds each
    group's first row — or None when there are fewer than
    :data:`DENSE_MIN_ROWS` keys or they span more than
    :data:`DENSE_SLOTS_PER_ROW` slots a key."""
    n = len(keys)
    if n < DENSE_MIN_ROWS:
        return None
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span > DENSE_SLOTS_PER_ROW * n:
        return None
    rel = keys - low
    present = np.zeros(span, dtype=bool)
    present[rel] = True
    rank = np.cumsum(present, dtype=np.int64)
    ngroups = int(rank[-1])
    rank -= 1
    inverse = rank.take(rel)
    first = np.full(ngroups, n, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(n, dtype=np.int64))
    return first, inverse, ngroups


def distinct_rows(batch: Batch) -> Batch:
    """Drop duplicate rows, keeping the first occurrence of each."""
    if batch.nrows == 0 or not batch.columns:
        return batch.slice(0, 1) if batch.nrows else batch
    (keys,) = pack_keys(list(batch.columns.values()))
    first, _, _ = unique_keys(keys)
    return batch.take(np.sort(first))
