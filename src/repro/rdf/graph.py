"""In-memory triple store with SPO / POS / OSP hash indexes.

Every triple pattern with at least one bound position is answered from an
index; only the fully unbound pattern scans. This is the storage layer under
both the Strabon-like GeoStore and the naive baseline — the baselines differ
only in how they treat *spatial* filters, so E2 isolates the spatial index.

The graph also maintains a **term dictionary** mapping every term it has ever
seen to a dense integer id (:meth:`term_id` / :meth:`term_for_id`). Ids are
assigned in first-seen order and never recycled — the dictionary is
append-only even under :meth:`remove` — so columnar consumers
(:mod:`repro.sparql.vector`) can keep id-indexed decode arrays that stay
valid across mutations and only ever need extending.

Alongside the dictionary the graph keeps an **id-row table**: three parallel
lists of (subject, predicate, object) ids, one row per live triple
(:meth:`id_columns`). Rows are unordered; :meth:`remove` swap-pops so both
mutations stay O(1). The vector engine snapshots these lists into numpy
arrays (keyed on :attr:`version`) and answers every scan with boolean masks
instead of iterating triples through Python.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import RDFError
from repro.rdf.term import Term, Triple, make_triple

Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]


class _ObjectIndex(defaultdict):
    """One predicate's POS entry (object -> subjects) and its triple count,
    so a predicate-only count is one lookup, not a sum over the buckets."""

    __slots__ = ("triples",)

    def __init__(self) -> None:
        super().__init__(set)
        self.triples = 0


class Graph:
    """A set of RDF triples with pattern-matching access paths."""

    def __init__(self, name: str = "default"):
        self.name = name
        # Monotonic mutation counter: bumped on every successful add/remove,
        # so plan caches can key on content identity (see repro.cache).
        self._version = 0
        # index[first][second] -> set of third
        self._spo: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._pos: Dict[Term, _ObjectIndex] = defaultdict(_ObjectIndex)
        self._osp: Dict[Term, Dict[Term, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        # Term dictionary: dense ids in first-seen order, never recycled.
        self._term_ids: Dict[Term, int] = {}
        self._id_terms: List[Term] = []
        # Id-row table: parallel (s, p, o) id columns, one row per live
        # triple, in no particular order. Stored as array('q') so columnar
        # consumers can snapshot them through the buffer protocol (a memcpy,
        # not a per-element conversion). _row_of maps a triple to its row so
        # remove can swap-pop in O(1); its keys, in insertion order, *are*
        # the triple set.
        self._row_s = array("q")
        self._row_p = array("q")
        self._row_o = array("q")
        self._row_of: Dict[Triple, int] = {}

    @property
    def version(self) -> int:
        """Content version: changes iff the triple set has changed."""
        return self._version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Add a triple. Returns False if it was already present."""
        triple = make_triple(subject, predicate, obj)
        if triple in self._row_of:
            return False
        self._version += 1
        s, p, o = triple
        self._spo[s][p].add(o)
        objects = self._pos[p]
        objects[o].add(s)
        objects.triples += 1
        self._osp[o][s].add(p)
        self._row_of[triple] = len(self._row_s)
        self._row_s.append(self._intern(s))
        self._row_p.append(self._intern(p))
        self._row_o.append(self._intern(o))
        return True

    def add_triple(self, triple: Triple) -> bool:
        return self.add(*triple)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        return sum(1 for t in triples if self.add_triple(t))

    def remove(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Remove a triple. Returns False if it was not present."""
        triple = Triple(subject, predicate, obj)
        row = self._row_of.pop(triple, None)
        if row is None:
            return False
        self._version += 1
        s, p, o = triple
        self._prune(self._spo, s, p, o)
        self._prune(self._pos, p, o, s).triples -= 1
        self._prune(self._osp, o, s, p)
        last = len(self._row_s) - 1
        if row != last:
            # The last row moves into the hole; the triple whose row that
            # was is read back from its three ids.
            s_id = self._row_s[row] = self._row_s[last]
            p_id = self._row_p[row] = self._row_p[last]
            o_id = self._row_o[row] = self._row_o[last]
            terms = self._id_terms
            self._row_of[Triple(terms[s_id], terms[p_id], terms[o_id])] = row
        self._row_s.pop()
        self._row_p.pop()
        self._row_o.pop()
        return True

    @staticmethod
    def _prune(index, a, b, c):
        """Discard ``index[a][b][c]``, dropping emptied levels; returns
        ``index[a]`` (detached if it emptied)."""
        second = index[a]
        bucket = second[b]
        bucket.discard(c)
        if not bucket:
            del second[b]
            if not second:
                del index[a]
        return second

    # ------------------------------------------------------------------
    # Term dictionary
    # ------------------------------------------------------------------

    def _intern(self, term: Term) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            term_id = len(self._id_terms)
            self._term_ids[term] = term_id
            self._id_terms.append(term)
        return term_id

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

    def id_columns(self) -> Tuple[array, array, array]:
        """The id-row table: parallel (subject, predicate, object) id columns.

        One row per live triple, in no particular order, as ``array('q')``
        buffers. Callers must treat them as read-only and snapshot them
        (keyed on :attr:`version`) before doing columnar work — they mutate
        with the graph.
        """
        return self._row_s, self._row_p, self._row_o

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._row_of

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._row_of)

    def triples(self, pattern: Pattern) -> Iterator[Triple]:
        """Yield triples matching a pattern of bound terms and ``None`` wildcards."""
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            triple = Triple(s, p, o)
            if triple in self._row_of:
                yield triple
            return
        if s is not None and p is not None:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj)
            return
        if p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
            return
        if s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
                yield Triple(s, pred, o)
            return
        if s is not None:
            for pred, objects in self._spo.get(s, {}).items():
                for obj in objects:
                    yield Triple(s, pred, obj)
            return
        if p is not None:
            for obj, subjects in self._pos.get(p, {}).items():
                for subj in subjects:
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, o)
            return
        yield from self._row_of

    def count(self, pattern: Pattern) -> int:
        """Number of triples matching *pattern*.

        Used by the federation planner and the vector engine's cost model.
        Every shape short of fully-bound is answered from index bucket sizes
        without materializing triples: two-bound shapes are one bucket
        lookup, as is the predicate-only shape (a kept per-predicate count);
        subject- or object-only shapes sum bucket sizes (O(buckets), not
        O(matching triples)).
        """
        s, p, o = pattern
        if s is None and p is None and o is None:
            return len(self._row_of)
        if s is not None and p is not None and o is not None:
            return 1 if Triple(s, p, o) in self._row_of else 0
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None:
            return self.predicate_count(p)
        return sum(len(preds) for preds in self._osp.get(o, {}).values())

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
        return iter(self._pos.keys())

    def value(self, subject: Term, predicate: Term) -> Optional[Term]:
        """The single object of (subject, predicate, ?) or None; raises if many."""
        objects = list(self._spo.get(subject, {}).get(predicate, ()))
        if not objects:
            return None
        if len(objects) > 1:
            raise RDFError(
                f"value() found {len(objects)} objects for {subject} {predicate}"
            )
        return objects[0]

    def predicate_count(self, predicate: Term) -> int:
        """Total triples with the given predicate (planner statistics)."""
        objects = self._pos.get(predicate)
        return 0 if objects is None else objects.triples

    # ------------------------------------------------------------------
    # Index statistics (O(1); feed the vector engine's cost model)
    # ------------------------------------------------------------------

    def distinct_subjects(self) -> int:
        """Number of distinct subjects (top-level SPO fanout)."""
        return len(self._spo)

    def distinct_predicates(self) -> int:
        """Number of distinct predicates (top-level POS fanout)."""
        return len(self._pos)

    def distinct_objects(self) -> int:
        """Number of distinct objects (top-level OSP fanout)."""
        return len(self._osp)
