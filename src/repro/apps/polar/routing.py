"""Safe ship routing through ice (A2).

"High quality, timely and reliable information about sea ice and iceberg
conditions is vital to ensure that vessels navigate efficiently and safely."
The route planner turns the maritime risk index into exactly that decision:
an A* search over the risk grid whose edge costs blend distance and risk,
with cells above the vessel's ice-class limit impassable.

``risk_weight`` is the efficiency/safety dial: 0 gives the geodesic, large
values hug open water however long the detour.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.geometry import LineString
from repro.geometry.geojson import feature

_NEIGHBOURS = (
    (0, 1, 1.0), (1, 0, 1.0), (0, -1, 1.0), (-1, 0, 1.0),
    (1, 1, math.sqrt(2)), (1, -1, math.sqrt(2)),
    (-1, 1, math.sqrt(2)), (-1, -1, math.sqrt(2)),
)


@dataclass(frozen=True)
class Route:
    """A planned route and its accounting."""

    cells: Tuple[Tuple[int, int], ...]
    distance: float  # path length in cell units
    mean_risk: float
    max_risk: float

    @property
    def length(self) -> int:
        return len(self.cells)


def plan_route(
    risk: np.ndarray,
    start: Tuple[int, int],
    goal: Tuple[int, int],
    risk_weight: float = 10.0,
    max_passable_risk: float = 0.9,
) -> Optional[Route]:
    """A* over the risk grid; returns None when no passable route exists.

    Edge cost = step distance x (1 + risk_weight x destination risk); the
    heuristic is the Euclidean distance (admissible: every edge costs at
    least its distance).
    """
    risk = np.asarray(risk, dtype=np.float64)
    if risk.ndim != 2:
        raise ReproError("risk grid must be 2-D")
    if risk_weight < 0:
        raise ReproError("risk_weight must be non-negative")
    if not 0.0 < max_passable_risk <= 1.0:
        raise ReproError("max_passable_risk must be in (0, 1]")
    height, width = risk.shape
    for name, (row, col) in (("start", start), ("goal", goal)):
        if not (0 <= row < height and 0 <= col < width):
            raise ReproError(f"{name} {row, col} outside the grid")
        if risk[row, col] > max_passable_risk:
            return None

    def heuristic(cell: Tuple[int, int]) -> float:
        return math.hypot(cell[0] - goal[0], cell[1] - goal[1])

    open_heap: List[Tuple[float, float, Tuple[int, int]]] = [
        (heuristic(start), 0.0, start)
    ]
    best_cost = {start: 0.0}
    parent = {start: None}
    while open_heap:
        _, cost, cell = heapq.heappop(open_heap)
        if cell == goal:
            return _build_route(risk, parent, goal)
        if cost > best_cost.get(cell, math.inf):
            continue
        for dr, dc, step in _NEIGHBOURS:
            r, c = cell[0] + dr, cell[1] + dc
            if not (0 <= r < height and 0 <= c < width):
                continue
            if risk[r, c] > max_passable_risk:
                continue
            new_cost = cost + step * (1.0 + risk_weight * risk[r, c])
            if new_cost < best_cost.get((r, c), math.inf):
                best_cost[(r, c)] = new_cost
                parent[(r, c)] = cell
                heapq.heappush(
                    open_heap, (new_cost + heuristic((r, c)), new_cost, (r, c))
                )
    return None


def _build_route(risk: np.ndarray, parent, goal) -> Route:
    cells = []
    cell = goal
    while cell is not None:
        cells.append(cell)
        cell = parent[cell]
    cells.reverse()
    distance = sum(
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(cells, cells[1:])
    )
    risks = [float(risk[r, c]) for r, c in cells]
    return Route(
        cells=tuple(cells),
        distance=distance,
        mean_risk=float(np.mean(risks)),
        max_risk=float(max(risks)),
    )


def route_to_geojson(route: Route, transform) -> dict:
    """The route as a GeoJSON LineString feature in map coordinates —
    the payload a PCDSS-style delivery would push to the bridge."""
    coordinates = [
        transform.pixel_to_map(row, col) for row, col in route.cells
    ]
    line = LineString(coordinates)
    return feature(
        line,
        {
            "distance_cells": round(route.distance, 2),
            "mean_risk": round(route.mean_risk, 4),
            "max_risk": round(route.max_risk, 4),
        },
    )
