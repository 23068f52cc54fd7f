"""Term encoding and id-indexed decode tables for the vector engine.

Two pieces:

* :class:`TermEncoder` — per-execution term <-> id mapping. Graph terms keep
  their dictionary ids (:meth:`repro.rdf.graph.Graph.term_id`); terms a query
  produces itself (BIND results, VALUES constants the graph has never seen)
  get *ephemeral* ids starting at ``graph.term_count``, deduplicated by term
  value so id-equality remains value-equality within the execution.

* :class:`ColumnCodec` — numpy decode tables indexed by graph term id,
  giving vectorized access to the three value views expression evaluation
  needs: the *strict* numeric view (``to_python`` numbers/booleans — what
  SPARQL ordered comparison accepts), the *lenient* numeric view (the
  ``_numeric`` coercion arithmetic uses, which also parses plain literals),
  and the effective-boolean-value view. The graph's term dictionary is
  append-only, so the tables are extended incrementally on
  :meth:`ColumnCodec.sync` (by capacity doubling, so a run of small
  dictionary growths copies each row O(1) times, amortised) and never
  invalidated. Table rows are filled
  **lazily**: :meth:`ColumnCodec.sync` only allocates, and consumers call
  :meth:`ColumnCodec.ensure` with the id columns they are about to index,
  so the Python-level term coercion runs once per *distinct id a query
  actually touches* — not once per dictionary entry. The codec also keeps
  the encoded id columns of inline tables (VALUES, spatial candidates) whose
  every cell is a graph term: such ids never change, so a cached plan's
  table is encoded once per graph, not once per execution.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rdf.graph import Graph
from repro.rdf.term import Literal, Term
from repro.sparql.algebra import TableOp
from repro.sparql.ast import Variable
from repro.sparql.functions import (
    EvaluationError,
    _numeric,
    effective_boolean_value,
)
from repro.sparql.vector.batch import UNBOUND


class TermEncoder:
    """Term <-> id mapping for one query execution.

    The graph never mutates during an evaluation, so ``graph.term_count`` is
    a stable base: ids below it decode through the graph dictionary, ids at
    or above it through the local overflow table.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.base = graph.term_count
        self._local_ids: Dict[Term, int] = {}
        self._local_terms: List[Term] = []

    def encode(self, term: Term) -> int:
        term_id = self.graph.term_id(term)
        if term_id is not None:
            return term_id
        local = self._local_ids.get(term)
        if local is None:
            local = self.base + len(self._local_terms)
            self._local_ids[term] = local
            self._local_terms.append(term)
        return local

    def decode(self, term_id: int) -> Term:
        if term_id < self.base:
            return self.graph.term_for_id(term_id)
        return self._local_terms[term_id - self.base]

    def decode_column(self, ids: np.ndarray) -> List[Optional[Term]]:
        """Python-side decode of a column; UNBOUND rows decode to None.

        A column of graph ids only is one ``take`` from the graph's term
        array; a column with query-local or UNBOUND cells decodes per cell.
        """
        if not len(ids):
            return []
        base = self.base
        if int(ids.min()) > UNBOUND and int(ids.max()) < base:
            return self.graph.id_term_array().take(ids).tolist()
        terms = self.graph.id_terms()
        local = self._local_terms
        # ids.tolist() iterates native ints — much faster than numpy scalars.
        return [
            None if i == UNBOUND else terms[i] if i < base else local[i - base]
            for i in ids.tolist()
        ]


def exact_float(value) -> Optional[float]:
    """``float(value)``, or None for an integer float64 cannot hold exactly.

    The numeric tables are float64; an integer beyond 2**53 that does not
    round-trip (nanosecond timestamps are ~1.7e18) would compare, sort and
    sum as its rounded neighbour, so such values are kept out of the tables
    and take the per-row interpreted path, which computes on Python ints.
    """
    if isinstance(value, int):
        try:
            as_float = float(value)
        except OverflowError:
            return None
        return as_float if int(as_float) == value else None
    return float(value)


def _strict_number(term: Term):
    """The number (int, float or bool) ordered comparison sees, or None.

    Mirrors :func:`repro.sparql.functions._comparable`: only typed literals
    whose ``to_python`` is an int/float/bool are numerically comparable —
    a plain ``"5"`` stays a string and must take the generic path.
    """
    if isinstance(term, Literal):
        value = term.to_python()
        if isinstance(value, (bool, int, float)):
            return value
    return None


#: The codec's id-indexed tables and their dtypes.
_TABLES = (
    ("cmp_values", np.float64),  # strict numeric view (ordered comparison)
    ("cmp_valid", bool),
    ("arith_values", np.float64),  # lenient numeric view (_numeric coercion)
    ("arith_valid", bool),
    ("arith_is_int", bool),
    ("inexact", bool),  # an integer float64 cannot hold
    ("ebv_values", bool),  # effective boolean value
    ("ebv_valid", bool),
    ("computed", bool),  # rows filled in by ensure()
)


class ColumnCodec:
    """Id-indexed decode tables over a graph's (append-only) term dictionary.

    ``size`` is the number of ids covered; the tables may be longer (spare
    capacity, all zero), so consumers index them with ids below ``size``.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.size = 0
        for name, dtype in _TABLES:
            setattr(self, name, np.zeros(0, dtype=dtype))
        # id(TableOp) -> (weak reference to it, its id columns); an entry
        # leaves when its table is collected.
        self._tables: Dict[int, Tuple[weakref.ref, Dict[Variable, np.ndarray]]] = {}

    def sync(self) -> None:
        """Extend the tables to cover every id the graph has assigned.

        Allocation only — new rows start uncomputed and are filled by
        :meth:`ensure` when a consumer first indexes them.
        """
        count = self.graph.term_count
        if count <= self.size:
            return
        if count > len(self.computed):
            capacity = max(count, 2 * len(self.computed))
            for name, dtype in _TABLES:
                grown = np.zeros(capacity, dtype=dtype)
                grown[: self.size] = getattr(self, name)[: self.size]
                setattr(self, name, grown)
        self.size = count

    def ensure(self, ids: np.ndarray) -> None:
        """Fill table rows for the given in-range ids (idempotent).

        The Python-level coercions run once per distinct uncomputed id, so
        a filter over a 100k-row column whose values draw from a few
        thousand literals costs a few thousand coercions, not 100k.
        """
        if len(ids) == 0:
            return
        pending = ids[~self.computed[ids]]
        if len(pending) == 0:
            return
        term_for_id = self.graph.term_for_id
        for term_id in map(int, np.unique(pending)):
            term = term_for_id(term_id)
            strict = _strict_number(term)
            if strict is not None:
                as_float = exact_float(strict)
                if as_float is None:
                    self.inexact[term_id] = True
                else:
                    self.cmp_values[term_id] = as_float
                    self.cmp_valid[term_id] = True
            try:
                value = _numeric(term)
            except EvaluationError:
                pass
            else:
                as_float = exact_float(value)
                if as_float is None:
                    self.inexact[term_id] = True
                else:
                    self.arith_values[term_id] = as_float
                    self.arith_valid[term_id] = True
                    self.arith_is_int[term_id] = isinstance(value, int)
            try:
                ebv = effective_boolean_value(term)
            except EvaluationError:
                pass
            else:
                self.ebv_values[term_id] = ebv
                self.ebv_valid[term_id] = True
            self.computed[term_id] = True

    def table_columns(
        self, op: TableOp, encoder: TermEncoder
    ) -> Dict[Variable, np.ndarray]:
        """The id columns of an inline table, None cells UNBOUND.

        A table whose every cell is a graph term (or UNDEF) is encoded once
        and its read-only columns kept for as long as the table lives: the
        dictionary is append-only, so those ids stay valid across writes. A
        table with a term the graph has not interned is encoded per
        execution, since that term's id is the execution's own.
        """
        key = id(op)
        entry = self._tables.get(key)
        if entry is not None and entry[0]() is op:
            return entry[1]
        encode = encoder.encode
        columns = {}
        for index, variable in enumerate(op.variables):
            columns[variable] = np.fromiter(
                (
                    UNBOUND if row[index] is None else encode(row[index])
                    for row in op.rows
                ),
                dtype=np.int64,
                count=len(op.rows),
            )
        if all(column.max(initial=UNBOUND) < encoder.base
               for column in columns.values()):
            for column in columns.values():
                column.flags.writeable = False
            tables = self._tables
            self._tables[key] = (
                weakref.ref(op, lambda _, key=key: tables.pop(key, None)),
                columns,
            )
        return columns


#: One codec per graph, shared across executions; decode tables are
#: append-only (the term dictionary never recycles ids) so they survive
#: graph mutations and only ever extend.
_CODECS: "weakref.WeakKeyDictionary[Graph, ColumnCodec]" = (
    weakref.WeakKeyDictionary()
)


def codec_for(graph: Graph) -> ColumnCodec:
    """The graph's shared codec, synced to its current dictionary size."""
    codec = _CODECS.get(graph)
    if codec is None:
        codec = ColumnCodec(graph)
        _CODECS[graph] = codec
    codec.sync()
    return codec
