"""A small in-memory relational engine (the database under the OBDA layer).

Tables hold typed columns (including a ``geometry`` type whose values are
:class:`~repro.geometry.primitives.Geometry` objects). Scans accept pushed
predicates — column comparisons and geometry bounding-box tests — so the
virtual store can do selection at the source, the property that makes OBDA
worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.geometry import BoundingBox, Geometry

COLUMN_TYPES = ("string", "integer", "float", "boolean", "geometry")


@dataclass(frozen=True)
class Column:
    """A typed column definition."""

    name: str
    type: str = "string"

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise ReproError(f"unknown column type {self.type!r}")
        if not self.name.isidentifier():
            raise ReproError(f"invalid column name {self.name!r}")


#: A pushed predicate: (column, operator, value). Operators: = != < <= > >=
#: for scalars, "bbox_intersects" for geometry columns.
Predicate = Tuple[str, str, Any]

_SCALAR_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Table:
    """One relation: a schema and a list of rows (dicts)."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise ReproError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate column in table {name!r}")
        self.name = name
        self.columns = {c.name: c for c in columns}
        self._rows: List[Dict[str, Any]] = []
        self.scan_count = 0
        self.rows_scanned = 0

    def insert(self, row: Dict[str, Any]) -> None:
        """Insert a row; missing columns become None, extras are rejected."""
        unknown = set(row) - set(self.columns)
        if unknown:
            raise ReproError(f"unknown columns {sorted(unknown)} for {self.name!r}")
        validated: Dict[str, Any] = {}
        for name, column in self.columns.items():
            value = row.get(name)
            if value is not None:
                self._check_type(column, value)
            validated[name] = value
        self._rows.append(validated)

    @staticmethod
    def _check_type(column: Column, value: Any) -> None:
        expected = {
            "string": str,
            "integer": int,
            "float": (int, float),
            "boolean": bool,
            "geometry": Geometry,
        }[column.type]
        if column.type == "integer" and isinstance(value, bool):
            raise ReproError(f"column {column.name!r} expects integer, got bool")
        if not isinstance(value, expected):
            raise ReproError(
                f"column {column.name!r} expects {column.type}, "
                f"got {type(value).__name__}"
            )

    def insert_many(self, rows: Sequence[Dict[str, Any]]) -> None:
        for row in rows:
            self.insert(row)

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self, predicates: Sequence[Predicate] = ()) -> Iterator[Dict[str, Any]]:
        """Yield rows satisfying all *predicates* (metered)."""
        self.scan_count += 1
        compiled = [self._compile(p) for p in predicates]
        for row in self._rows:
            self.rows_scanned += 1
            if all(test(row) for test in compiled):
                yield row

    def _compile(self, predicate: Predicate) -> Callable[[Dict[str, Any]], bool]:
        column, operator, value = predicate
        if column not in self.columns:
            raise ReproError(f"unknown column {column!r} in predicate")
        if operator == "bbox_intersects":
            if self.columns[column].type != "geometry":
                raise ReproError(f"bbox_intersects needs a geometry column")
            if not isinstance(value, BoundingBox):
                raise ReproError("bbox_intersects needs a BoundingBox value")
            return lambda row: (
                row[column] is not None and row[column].bbox.intersects(value)
            )
        op = _SCALAR_OPS.get(operator)
        if op is None:
            raise ReproError(f"unknown predicate operator {operator!r}")

        def test(row: Dict[str, Any]) -> bool:
            cell = row[column]
            if cell is None:
                return False
            try:
                return op(cell, value)
            except TypeError:
                return False

        return test


class Database:
    """A named collection of tables."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, columns: Sequence[Column]) -> Table:
        if name in self._tables:
            raise ReproError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise ReproError(f"no such table {name!r}")
        return self._tables[name]

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)
