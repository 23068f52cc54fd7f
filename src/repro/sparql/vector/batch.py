"""Columnar solution batches.

A :class:`Batch` is the vector engine's unit of data flow: a set of solutions
represented as one ``int64`` numpy array of term ids per variable, instead of
one ``{Variable: Term}`` dict per solution. The sentinel :data:`UNBOUND`
(``-1``) marks rows where a variable carries no binding — the columnar
equivalent of the variable being absent from the solution dict (OPTIONAL
misses, ``VALUES`` UNDEF cells, errored BINDs).

Term ids come from the owning :class:`~repro.rdf.graph.Graph`'s append-only
term dictionary, extended per-execution with ephemeral ids for terms a query
computes itself (see :mod:`repro.sparql.vector.dictionary`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.sparql.ast import Variable

#: Column sentinel for "this variable is not bound in this row".
UNBOUND = -1

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class Batch:
    """A block of solutions: one int64 id-column per (possibly) bound variable."""

    __slots__ = ("columns", "nrows")

    def __init__(self, columns: Dict[Variable, np.ndarray], nrows: int):
        self.columns = columns
        self.nrows = nrows

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def unit() -> "Batch":
        """The single empty solution (join identity): one row, no columns."""
        return Batch({}, 1)

    @staticmethod
    def empty(variables: Iterable[Variable] = ()) -> "Batch":
        """Zero solutions over the given column set."""
        return Batch({v: _EMPTY_IDS for v in variables}, 0)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def column(self, variable: Variable) -> np.ndarray:
        """The id column for *variable*; all-UNBOUND if it has no column."""
        col = self.columns.get(variable)
        if col is None:
            return np.full(self.nrows, UNBOUND, dtype=np.int64)
        return col

    def variables(self) -> List[Variable]:
        return list(self.columns)

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Batch":
        """Row subset/reorder by integer indices (numpy fancy indexing)."""
        return Batch(
            {v: col[indices] for v, col in self.columns.items()}, len(indices)
        )

    def mask(self, keep: np.ndarray) -> "Batch":
        """Row subset by boolean mask: one ``flatnonzero``, then one
        :meth:`take` per column, which beats a boolean index per column
        from the second column on."""
        return self.take(np.flatnonzero(keep))

    def slice(self, offset: int, limit) -> "Batch":
        stop = None if limit is None else offset + limit
        window = slice(offset, stop)
        nrows = len(range(*window.indices(self.nrows)))
        return Batch({v: col[window] for v, col in self.columns.items()}, nrows)

    def select(self, variables: Sequence[Variable]) -> "Batch":
        """Keep only the given columns (projection)."""
        return Batch(
            {v: self.columns[v] for v in variables if v in self.columns},
            self.nrows,
        )

    def with_column(self, variable: Variable, column: np.ndarray) -> "Batch":
        columns = dict(self.columns)
        columns[variable] = column
        return Batch(columns, self.nrows)

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------

    @staticmethod
    def concat(batches: Sequence["Batch"]) -> "Batch":
        """Stack batches, aligning columns; missing columns fill UNBOUND."""
        batches = [b for b in batches]
        if not batches:
            return Batch.empty()
        variables: List[Variable] = []
        for batch in batches:
            for variable in batch.columns:
                if variable not in variables:
                    variables.append(variable)
        nrows = sum(b.nrows for b in batches)
        columns = {
            v: np.concatenate([b.column(v) for b in batches]) if nrows else _EMPTY_IDS
            for v in variables
        }
        return Batch(columns, nrows)

    def key_matrix(self, variables: Sequence[Variable]) -> np.ndarray:
        """Rows-by-variables id matrix (the dist shuffle's bucket keys)."""
        if not variables:
            return np.empty((self.nrows, 0), dtype=np.int64)
        return np.column_stack([self.column(v) for v in variables])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(f"?{v.name}" for v in self.columns)
        return f"Batch({self.nrows} rows; [{names}])"
