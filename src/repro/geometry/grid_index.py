"""Uniform grid spatial index.

A simpler alternative to the R-tree: space is cut into fixed-size cells, and
every entry is registered in each cell its bounding box overlaps. Used by the
interlinking engine as its equigrid *blocking* structure and by benchmark
baselines.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generic, Iterator, List, Set, Tuple, TypeVar

from repro.errors import GeometryError
from repro.geometry.primitives import BoundingBox

T = TypeVar("T")

CellKey = Tuple[int, int]


class GridIndex(Generic[T]):
    """Fixed-cell-size spatial hash over ``(BoundingBox, item)`` entries."""

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise GeometryError("grid cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[CellKey, List[Tuple[BoundingBox, T]]] = defaultdict(list)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def _cell_range(self, bbox: BoundingBox) -> Iterator[CellKey]:
        min_cx = math.floor(bbox.min_x / self.cell_size)
        max_cx = math.floor(bbox.max_x / self.cell_size)
        min_cy = math.floor(bbox.min_y / self.cell_size)
        max_cy = math.floor(bbox.max_y / self.cell_size)
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                yield (cx, cy)

    def insert(self, bbox: BoundingBox, item: T) -> None:
        """Register *item* under every cell its box overlaps."""
        self._size += 1
        for key in self._cell_range(bbox):
            self._cells[key].append((bbox, item))

    def search(self, query: BoundingBox) -> Iterator[T]:
        """Yield items whose bounding box intersects *query* (each item once)."""
        seen: Set[int] = set()
        for key in self._cell_range(query):
            for box, item in self._cells.get(key, ()):
                marker = id(item)
                if marker in seen:
                    continue
                if box.intersects(query):
                    seen.add(marker)
                    yield item

    def cells(self) -> Iterator[Tuple[CellKey, List[Tuple[BoundingBox, T]]]]:
        """Iterate non-empty cells as (key, entries) — the block collection."""
        return iter(self._cells.items())
