"""In-memory triple store: id columns in sorted orders, plus a delta.

Every term the graph has seen gets a dense integer id in first-seen order
(:meth:`term_id` / :meth:`term_for_id`). The dictionary is append-only even
under :meth:`remove`, so columnar consumers (:mod:`repro.sparql.vector`) can
keep id-indexed decode arrays that stay valid across mutations.

Triples are held only as ids, in the RDF-3X / Hexastore layout cut down to
what the engines use. The **base** is three int64 columns sorted by
(subject, predicate, object), the POS, PSO and OSP permutations of its rows
and its insertion order (the iteration order) as a fourth; as in RDF-3X,
each order keeps the columns a scan of it returns in its own row order. A
bound prefix of any order is one range (the lead id's start offsets, then a
binary search per further id) and a scan returns slices of it. Base
positions are SPO order and every permutation range lists them ascending,
so every scan comes out subject-major, and its subject-id range (a dist
partition) is two more binary searches. The **delta** is
an append buffer of id rows and a tombstone bitmap over the base: ``add``
appends and ``remove`` sets a tombstone (or drops a delta row), both O(1)
amortised, and once the pending rows pass ``_MERGE_FRACTION`` of the base
one sort folds them in.

Reads see base and delta together: :meth:`id_rows` gives the vector engine a
pattern's rows as id columns, and :meth:`triples` decodes them for the
interpreted engine; a small answer, such as its per-binding bound-subject
probe, is found and decoded in plain Python. Per-id
occurrence counts, kept on every mutation, make :meth:`count` of one bound
term, :meth:`predicate_count` and the ``distinct_*`` statistics O(1).

This is the storage layer under both the Strabon-like GeoStore and the naive
baseline; they differ only in how they treat *spatial* filters, so E2
isolates the spatial index.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RDFError
from repro.rdf.term import Term, Triple, make_triple

Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
#: Parallel (subject, predicate, object) int64 id columns.
IdRows = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Pending rows (delta rows plus tombstones) may reach this fraction of the
#: base, and at least ``_MERGE_FLOOR``, before a merge folds them in.
_MERGE_FRACTION = 0.125
_MERGE_FLOOR = 16
_EMPTY = np.empty(0, dtype=np.int64)
_NO_ROWS: IdRows = (_EMPTY, _EMPTY, _EMPTY)
_NO_TERMS = np.empty(0, dtype=object)
_CHUNK = 4096  #: rows decoded per step when iterating
#: Answers up to this many base rows are decoded in Python: below it, one
#: numpy call costs more than the rows.
_PYTHON_ROWS = 64
#: ``Triple`` from an (s, p, o) tuple without the Python-level ``__new__``.
_triple = partial(tuple.__new__, Triple)


def _sort_order(a: np.ndarray, b: np.ndarray, c: np.ndarray, radix: int,
                stable: bool = False) -> np.ndarray:
    """The permutation sorting rows by (a, b, c): one argsort of a packed
    key, or ``np.lexsort`` when three ids would not fit in 63 bits."""
    if radix ** 3 < 2 ** 63:
        return np.argsort((a * radix + b) * radix + c, kind="stable" if stable else None)
    return np.lexsort((c, b, a))


class Graph:
    """A set of RDF triples with pattern-matching access paths."""

    def __init__(self, name: str = "default"):
        self.name = name
        # Monotonic mutation counter: bumped on every successful add/remove,
        # so plan caches can key on content identity (see repro.cache).
        self._version = 0
        self._term_ids: Dict[Term, int] = {}
        self._id_terms: List[Term] = []
        # An object-array mirror of _id_terms for bulk decode, built on first
        # use: (array, entries filled), the array's spare capacity unfilled.
        self._term_array: Tuple[np.ndarray, int] = (_NO_TERMS, 0)
        # Live occurrences of every id in each position, and how many ids
        # occur at all in each position.
        self._uses = (array("q"), array("q"), array("q"))
        self._distinct = [0, 0, 0]
        self._size = 0
        self._merge(_NO_ROWS)

    @property
    def version(self) -> int:
        """Content version: changes iff the triple set has changed."""
        return self._version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Add a triple. Returns False if it was already present."""
        return self._insert(make_triple(subject, predicate, obj))

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted.

        Every triple is validated before any is added, so a bad one leaves
        the graph unchanged. A batch that would carry the delta past its
        merge point is interned in one loop and folded in by one merge; a
        smaller one takes the :meth:`add` path. Either way the graph ends
        exactly as the same ``add`` calls, one at a time, would leave it.
        """
        batch = triples if isinstance(triples, list) else list(triples)
        for triple in batch:
            make_triple(*triple)  # validates; raises before anything changes
        if self._pending() + len(batch) <= self._merge_point():
            return sum(map(self._insert, batch))
        ids = array("q")
        get, intern, append = self._term_ids.get, self._intern, ids.append
        for triple in batch:
            for term in triple:
                term_id = get(term)
                append(intern(term) if term_id is None else term_id)
        before = self._size
        added = np.frombuffer(ids, dtype=np.int64).reshape(-1, 3)
        self._merge(tuple(
            np.concatenate([column, added[:, slot]])
            for slot, column in enumerate(self._live_rows())
        ), dedupe=True)
        return self._size - before

    def remove(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Remove a triple. Returns False if it was not present."""
        ids = self._lookup((subject, predicate, obj))
        if ids is None:
            return False
        sid, pid, oid = ids
        entries = self._delta_of.get(sid)
        row = entries.pop((pid, oid), None) if entries else None
        if row is not None:
            if not entries:
                del self._delta_of[sid]
            self._delta[3 * row] = -1  # a dropped delta row's subject
            self._delta_po[pid, oid] -= 1
        else:
            _, lo, hi = self._range(self._by_spo, sid, pid, oid)
            if lo == hi or self._dead_view[lo]:
                return False
            self._dead_view[lo] = True
            self._ndead += 1
        self._changed(ids, -1)
        return True

    def compact(self) -> None:
        """Fold pending changes into the base now. Reads never need this;
        a consumer that wants :meth:`id_columns` as the sorted base does."""
        if self._pending():
            self._merge(self._live_rows())

    def _insert(self, triple: Triple) -> bool:
        # A present triple's terms are all interned already, so interning
        # first never assigns an id to a term of a duplicate.
        ids = sid, pid, oid = tuple(map(self._intern, triple))
        if self._has(sid, pid, oid):
            return False
        self._delta_of.setdefault(sid, {})[(pid, oid)] = len(self._delta) // 3
        self._delta_po[pid, oid] = self._delta_po.get((pid, oid), 0) + 1
        self._delta.extend(ids)
        self._changed(ids, 1)
        return True

    def _changed(self, ids: Sequence[int], step: int) -> None:
        """Account one inserted (+1) or removed (-1) triple."""
        self._size += step
        self._version += 1
        for slot, (uses, term_id) in enumerate(zip(self._uses, ids)):
            before = uses[term_id]
            uses[term_id] = before + step
            if before == 0 or before + step == 0:
                self._distinct[slot] += step
        if self._pending() > self._merge_point():
            self._merge(self._live_rows())

    def _pending(self) -> int:
        return len(self._delta) // 3 + self._ndead

    def _merge_point(self) -> float:
        return max(_MERGE_FLOOR, _MERGE_FRACTION * len(self._cols[0]))

    def _merge(self, rows: IdRows, dedupe: bool = False) -> None:
        """Rebuild the base from *rows* (in insertion order) and empty the
        delta. With *dedupe*, repeated rows keep their first occurrence."""
        self._delta = array("q")  # flat (s, p, o) rows
        # Live delta rows: subject id -> {(predicate id, object id): row},
        # and their number per (predicate id, object id).
        self._delta_of: Dict[int, Dict[Tuple[int, int], int]] = {}
        self._delta_po: Dict[Tuple[int, int], int] = {}
        self._delta_cache: Optional[Tuple[int, IdRows]] = None
        self._ndead = 0
        s, p, o = rows
        if not len(s):  # nothing live, as in a new graph: every range is empty
            self._radix, self._cols, self._order = 0, _NO_ROWS, _EMPTY
            self._by_spo = self._by_pos = self._by_pso = self._by_osp = (None,) * 4 + (_NO_ROWS,)
            self._views = (None,) * 3
            self._dead = np.zeros(0, dtype=bool)
            self._dead_view = memoryview(self._dead)
            return
        radix = self._radix = len(self._id_terms)
        seq = _sort_order(s, p, o, radix, stable=dedupe)  # insertion ranks
        s, p, o = s[seq], p[seq], o[seq]
        if dedupe and len(seq) > 1:
            first = np.ones(len(seq), dtype=bool)
            first[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
            seq, s, p, o = seq[first], s[first], p[first], o[first]
        self._version += len(seq) - self._size
        self._size = len(seq)
        self._order = np.argsort(seq)
        starts = []
        for slot, (uses, column) in enumerate(zip(self._uses, (s, p, o))):
            column.flags.writeable = False
            counts = np.bincount(column, minlength=radix)
            uses[:] = array("q", counts.tobytes())
            self._distinct[slot] = int(np.count_nonzero(counts))
            starts.append(memoryview(np.concatenate([[0], np.cumsum(counts)])))
        self._cols = (s, p, o)
        # An order: (permutation of base positions, or None for SPO itself;
        # start offsets of each lead id; the sorted second and third ids;
        # its (s, p, o) columns in its own row order, None where a scan of
        # it binds or gathers). The views are memoryviews, so a Python probe
        # reads plain ints.
        pos, pso, osp = (_sort_order(*key, radix) for key in ((p, o, s), (p, s, o), (o, s, p)))
        s_pos, o_pos, s_pso, o_pso, s_osp = kept = (s[pos], o[pos], s[pso], o[pso], s[osp])
        for column in kept:
            column.flags.writeable = False
        self._views = tuple(map(memoryview, (s, p, o)))
        self._by_spo = (None, starts[0], *self._views[1:], self._cols)
        self._by_pos = (pos, starts[1], memoryview(o_pos), None, (s_pos, None, o_pos))
        self._by_pso = (pso, starts[1], None, None, (s_pso, None, o_pso))
        self._by_osp = (osp, starts[2], memoryview(s_osp), None, (s_osp, None, None))
        self._dead = np.zeros(len(seq), dtype=bool)
        self._dead_view = memoryview(self._dead)

    # ------------------------------------------------------------------
    # Term dictionary
    # ------------------------------------------------------------------

    def _intern(self, term: Term) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            term_id = len(self._id_terms)
            self._term_ids[term] = term_id
            self._id_terms.append(term)
            for uses in self._uses:
                uses.append(0)
        return term_id

    def _lookup(self, pattern) -> Optional[List[Optional[int]]]:
        """The ids of a pattern's bound terms (None stays None), or None if
        one of them was never seen."""
        get = self._term_ids.get
        s, p, o = pattern
        ids = [
            None if s is None else get(s, -1),
            None if p is None else get(p, -1),
            None if o is None else get(o, -1),
        ]
        return None if -1 in ids else ids

    @property
    def term_count(self) -> int:
        """Number of distinct terms ever seen (the dictionary is append-only)."""
        return len(self._id_terms)

    def term_id(self, term: Term) -> Optional[int]:
        """The dense id for *term*, or None if the graph has never seen it."""
        return self._term_ids.get(term)

    def term_for_id(self, term_id: int) -> Term:
        """The term a dictionary id decodes to; raises on out-of-range ids."""
        return self._id_terms[term_id]

    def id_terms(self) -> Sequence[Term]:
        """The term dictionary as an id-indexed sequence (read-only).

        Append-only, so an index below a :attr:`term_count` the caller has
        read stays valid; bulk decoders index it directly instead of paying
        a :meth:`term_for_id` call per cell.
        """
        return self._id_terms

    def id_term_array(self) -> np.ndarray:
        """The term dictionary as an id-indexed numpy object array, so a
        column of ids decodes with one ``take`` (read-only by contract).

        Entries below :attr:`term_count` are filled; spare capacity past it
        is not. The array is built on first use and then grows with the
        dictionary by doubling, so a read after each write copies only the
        new terms, amortised.
        """
        mirror, filled = self._term_array
        count = len(self._id_terms)
        if filled < count:
            if count > len(mirror):
                grown = np.empty(max(count, 2 * len(mirror)), dtype=object)
                grown[:filled] = mirror[:filled]
                mirror = grown
            mirror[filled:count] = self._id_terms[filled:count]
            self._term_array = (mirror, count)
        return mirror

    # ------------------------------------------------------------------
    # Id rows
    # ------------------------------------------------------------------

    def id_columns(self) -> IdRows:
        """Every live triple as parallel (subject, predicate, object) int64
        id columns (read-only, valid until the next mutation).

        Base rows come first, sorted by (subject, predicate, object), then
        the delta's. After :meth:`compact` they are the base columns
        themselves, so a subject-id range is a contiguous, uncopied slice.
        """
        return self.id_rows((None, None, None))[0]

    def id_rows(self, pattern: Pattern, subjects: Optional[Tuple[int, int]] = None
                ) -> Tuple[Tuple[Optional[np.ndarray], ...], int]:
        """The live rows matching a pattern of bound terms and ``None``
        wildcards: ``(columns, nrows)``, each wildcard position's id column
        (None at a bound position, which is never built) and the row count.

        The rows are one range of the order the bound terms prefix, in SPO
        order: uncopied slices of the order's own columns, tombstones masked
        out, then the delta's matches. *subjects* ``(first, last)`` keeps
        subject ids in ``[first, last)``, by binary search on the subject
        column, which is sorted within any range."""
        ids = self._lookup(pattern)
        if ids is None:
            return tuple(_EMPTY if term is None else None for term in pattern), 0
        (perm, _, _, _, kept), lo, hi = self._base_range(*ids)
        if subjects is not None and lo < hi:
            lo, hi = (lo + kept[0][lo:hi].searchsorted(subjects)).tolist()
        columns = [
            None if term_id is not None
            else kept[slot][lo:hi] if kept[slot] is not None
            else self._cols[slot][perm[lo:hi]]  # OSP's predicates are gathered
            for slot, term_id in enumerate(ids)
        ]
        nrows = hi - lo
        if self._ndead:
            live = ~self._dead[slice(lo, hi) if perm is None else perm[lo:hi]]
            columns = [column if column is None else column[live] for column in columns]
            nrows = int(np.count_nonzero(live))
        delta = self._delta_match(ids, subjects)
        if delta is not None:
            columns = [None if column is None else np.concatenate((column, rows))
                       for column, rows in zip(columns, delta)]
            nrows += len(delta[0])
        return tuple(columns), nrows

    def _range(self, order, lead: int, second: Optional[int] = None,
               third: Optional[int] = None):
        """``(order, lo, hi)``: the base rows of *order* led by the given
        ids are its rows ``[lo, hi)``, base positions ``perm[lo:hi]``."""
        _, starts, second_view, third_view, _ = order
        if lead >= self._radix:
            return order, 0, 0  # interned after the last merge
        lo, hi = starts[lead], starts[lead + 1]
        if second is not None and lo < hi:
            lo = bisect_left(second_view, second, lo, hi)
            hi = bisect_right(second_view, second, lo, hi)
            if third is not None and lo < hi:
                lo = bisect_left(third_view, third, lo, hi)
                hi = bisect_right(third_view, third, lo, hi)
        return order, lo, hi

    def _base_range(self, sid, pid, oid):
        """The base rows matching the bound ids, tombstones included, as
        :meth:`_range` gives them, from the order they prefix."""
        if sid is not None and (pid is not None or oid is None):
            return self._range(self._by_spo, sid, pid, oid)
        if pid is not None:
            return self._range(self._by_pso, pid) if oid is None else self._range(self._by_pos, pid, oid)
        if oid is not None:
            return self._range(self._by_osp, oid, sid)
        return self._by_spo, 0, len(self._cols[0])

    def _delta_rows(self) -> IdRows:
        """The delta's live rows as int64 columns (cached per version)."""
        cached = self._delta_cache
        if cached is None or cached[0] != self._version:
            rows = _NO_ROWS
            if self._delta_of:
                flat = np.frombuffer(self._delta, dtype=np.int64).reshape(-1, 3)
                rows = tuple(flat[flat[:, 0] >= 0].T.copy())
            cached = self._delta_cache = (self._version, rows)  # type: ignore[assignment]
        return cached[1]

    def _delta_match(self, ids: Sequence[Optional[int]],
                     subjects: Optional[Tuple[int, int]]) -> Optional[IdRows]:
        """The delta's live rows matching the bound ids, with a subject id
        in ``[first, last)`` of *subjects* if given, or None if none."""
        if not self._delta_of or (ids[0] is not None and ids[0] not in self._delta_of):
            return None
        rows = self._delta_rows()
        keep = np.ones(len(rows[0]), dtype=bool)
        for column, term_id in zip(rows, ids):
            if term_id is not None:
                keep &= column == term_id
        if subjects is not None:
            keep &= (rows[0] >= subjects[0]) & (rows[0] < subjects[1])
        return tuple(column[keep] for column in rows) if keep.any() else None

    def _live_rows(self) -> IdRows:
        """Every live row in insertion order: the base through its insertion
        permutation, then the delta."""
        rows = self._order
        if self._ndead:
            rows = rows[~self._dead[rows]]
        return tuple(  # type: ignore[return-value]
            np.concatenate([column[rows], delta])
            for column, delta in zip(self._cols, self._delta_rows())
        )

    def _has(self, sid: int, pid: int, oid: int) -> bool:
        _, lo, hi = self._range(self._by_spo, sid, pid, oid)
        if lo < hi and not self._dead_view[lo]:
            return True
        return (pid, oid) in self._delta_of.get(sid, ())

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        ids = self._lookup(triple)
        return ids is not None and self._has(*ids)

    def __iter__(self) -> Iterator[Triple]:
        """Live triples in insertion order (a re-added triple counts as new)."""
        terms = self._id_terms.__getitem__
        columns = self._live_rows()
        for start in range(0, len(columns[0]), _CHUNK):
            yield from map(_triple, zip(*(
                map(terms, column[start:start + _CHUNK].tolist()) for column in columns
            )))

    def triples(self, pattern: Pattern) -> Iterator[Triple]:
        """Yield triples matching a pattern of bound terms and ``None`` wildcards."""
        s, p, o = pattern
        if s is None and p is None and o is None:
            yield from self
            return
        ids = self._lookup(pattern)
        if ids is None:
            return
        sid, pid, oid = ids
        terms = self._id_terms
        order, lo, hi = self._base_range(sid, pid, oid)
        perm = order[0]
        if hi - lo > _PYTHON_ROWS or (sid is None and len(self._delta) > 3 * _PYTHON_ROWS):
            columns, nrows = self.id_rows(pattern)
            yield from map(_triple, zip(*(
                repeat(term, nrows) if term is not None
                else map(terms.__getitem__, column.tolist())
                for term, column in zip(pattern, columns)
            )))
            return
        # A small answer (the interpreted engine's per-binding probe): plain
        # Python over memoryviews, no numpy call on a subject's slice.
        s_view, p_view, o_view = self._views
        dead = self._dead_view
        for row in range(lo, hi) if perm is None else perm[lo:hi].tolist():
            if not dead[row]:
                yield _triple((
                    terms[s_view[row]] if s is None else s,
                    terms[p_view[row]] if p is None else p,
                    terms[o_view[row]] if o is None else o,
                ))
        if sid is not None:
            entries = self._delta_of.get(sid)
            if entries:
                for dp, do in list(entries):
                    if (pid is None or dp == pid) and (oid is None or do == oid):
                        yield _triple((s, terms[dp], terms[do]))
        elif self._delta_of:
            flat = iter(self._delta)
            for ds, dp, do in zip(flat, flat, flat):
                if ds >= 0 and (pid is None or dp == pid) and (oid is None or do == oid):
                    yield _triple((terms[ds], terms[dp], terms[do]))

    def count(self, pattern: Pattern) -> int:
        """Number of triples matching *pattern*, exact and without building
        triples (the federation planner's and the cost model's statistic).
        One bound term reads its kept occurrence count; more are the length
        of a base range, less its tombstones, plus the delta's matches,
        counted from its subject or (predicate, object) index."""
        s, p, o = pattern
        if s is None and o is None:  # the cost model's commonest shape
            return self._size if p is None else self.predicate_count(p)
        if p is None and (s is None or o is None):
            slot, term = (0, s) if o is None else (2, o)
            term_id = self._term_ids.get(term)
            return 0 if term_id is None else self._uses[slot][term_id]
        ids = self._lookup(pattern)
        if ids is None:
            return 0
        sid, pid, oid = ids
        order, lo, hi = self._base_range(sid, pid, oid)
        perm = order[0]
        found = hi - lo
        if self._ndead and found:
            found -= int(np.count_nonzero(self._dead[slice(lo, hi) if perm is None else perm[lo:hi]]))
        if sid is None:
            return found + self._delta_po.get((pid, oid), 0)
        entries = self._delta_of.get(sid)
        if entries:
            found += sum(
                (pid is None or dp == pid) and (oid is None or do == oid)
                for dp, do in entries
            )
        return found

    def subjects(self, predicate: Optional[Term] = None, obj: Optional[Term] = None) -> Iterator[Term]:
        seen = set()
        for triple in self.triples((None, predicate, obj)):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def objects(self, subject: Optional[Term] = None, predicate: Optional[Term] = None) -> Iterator[Term]:
        seen = set()
        for triple in self.triples((subject, predicate, None)):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def predicates(self) -> Iterator[Term]:
        """Every predicate with a live triple, in id order."""
        uses = self._uses[1]
        return (self._id_terms[i] for i in range(len(uses)) if uses[i])

    def value(self, subject: Term, predicate: Term) -> Optional[Term]:
        """The single object of (subject, predicate, ?) or None; raises if many."""
        objects = [t.object for t in self.triples((subject, predicate, None))]
        if len(objects) > 1:
            raise RDFError(
                f"value() found {len(objects)} objects for {subject} {predicate}"
            )
        return objects[0] if objects else None

    def predicate_count(self, predicate: Term) -> int:
        """Total triples with the given predicate (planner statistics)."""
        term_id = self._term_ids.get(predicate)
        return 0 if term_id is None else self._uses[1][term_id]

    # ------------------------------------------------------------------
    # Statistics (O(1); feed the vector engine's cost model)
    # ------------------------------------------------------------------

    def distinct_subjects(self) -> int:
        return self._distinct[0]

    def distinct_predicates(self) -> int:
        return self._distinct[1]

    def distinct_objects(self) -> int:
        return self._distinct[2]
