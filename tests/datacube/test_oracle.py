"""Property suite: cube slicing/compute vs a dense in-memory ndarray oracle.

The cube path (chunked storage, pruning, tiled streaming, tail buffers)
must be observationally equivalent to holding the whole ``(t, y, x)``
array in memory and slicing it. Hypothesis drives grid sizes, chunk
shapes, step counts, and selections; the seed acceptance bar is >= 50
examples on the main equivalence property.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datacube import ChunkStore, Cube, CubeSchema
from repro.errors import DatacubeError
from repro.geometry import Polygon
from repro.raster.grid import GeoTransform, pixel_window
from tests.raster.test_rasterize_window import reference_mask

PIXEL = 10.0


@st.composite
def cube_cases(draw):
    """A random cube geometry, its data, and one selection against it."""
    height = draw(st.integers(8, 24))
    width = draw(st.integers(8, 24))
    chunk_t = draw(st.integers(1, 4))
    chunk_y = draw(st.integers(1, 8))
    chunk_x = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 10))
    data_seed = draw(st.integers(0, 2**31 - 1))
    flush = draw(st.booleans())

    # A selection: a time window over the step indices and a pixel-aligned
    # bbox (edges on pixel boundaries, so center containment is unambiguous).
    t_lo = draw(st.integers(0, steps - 1))
    t_hi = draw(st.integers(t_lo, steps - 1))
    col0 = draw(st.integers(0, width - 1))
    col1 = draw(st.integers(col0 + 1, width))
    row0 = draw(st.integers(0, height - 1))
    row1 = draw(st.integers(row0 + 1, height))
    return dict(
        height=height, width=width, chunk_t=chunk_t, chunk_y=chunk_y,
        chunk_x=chunk_x, steps=steps, data_seed=data_seed, flush=flush,
        t_lo=t_lo, t_hi=t_hi, window=(row0, row1, col0, col1),
    )


def build(case, variables=("v",)):
    """Materialize the case: returns (cube, dense oracle per variable, times)."""
    schema = CubeSchema(
        transform=GeoTransform(0.0, 0.0, PIXEL),
        height=case["height"], width=case["width"], variables=variables,
        chunk_t=case["chunk_t"], chunk_y=case["chunk_y"],
        chunk_x=case["chunk_x"],
    )
    cube = Cube.create(ChunkStore(), "/cubes/prop", schema)
    rng = np.random.default_rng(case["data_seed"])
    slabs = {name: [] for name in variables}
    times = []
    for step in range(case["steps"]):
        arrays = {name: rng.random((case["height"], case["width"]))
                  for name in variables}
        if step == 0:
            for array in arrays.values():
                array[0, :2] = 0.0  # so nir + red == 0 occurs (NDVI's zero branch)
        time = float(step * 7 + 1)
        cube.append(time, arrays, source_id=f"s{step}")
        for name, array in arrays.items():
            slabs[name].append(array.astype("float32"))
        times.append(time)
    if case["flush"]:
        cube.flush()
    return cube, {name: np.stack(stack) for name, stack in slabs.items()}, times


def case_selection(case, times):
    """(t_min, t_max, bbox) of the case in cube coordinates, plus the
    oracle's equivalent index expression."""
    row0, row1, col0, col1 = case["window"]
    t_min, t_max = times[case["t_lo"]], times[case["t_hi"]]
    # Pixel-boundary bbox covering cols [col0, col1) and rows [row0, row1)
    # by center containment; origin_y = 0, map y negative below it.
    bbox = (col0 * PIXEL, -row1 * PIXEL, col1 * PIXEL, -row0 * PIXEL)
    index = (slice(case["t_lo"], case["t_hi"] + 1),
             slice(row0, row1), slice(col0, col1))
    return t_min, t_max, bbox, index


@settings(max_examples=60, deadline=None)
@given(case=cube_cases())
def test_read_matches_dense_oracle(case):
    cube, dense, times = build(case)
    t_min, t_max, bbox, index = case_selection(case, times)
    plan = cube.sel("v", t_min, t_max, bbox)
    expected = dense["v"][index]
    got = plan.read()
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert plan.times() == times[case["t_lo"] : case["t_hi"] + 1]
    # Pruning never plans more than the sealed total.
    assert 0 <= plan.chunks_touched <= plan.chunks_total


@settings(max_examples=50, deadline=None)
@given(case=cube_cases(),
       op=st.sampled_from(["mean", "sum", "min", "max"]))
def test_reduce_time_matches_dense_oracle(case, op):
    cube, dense, times = build(case)
    t_min, t_max, bbox, index = case_selection(case, times)
    window = dense["v"][index].astype(np.float64)
    got = cube.sel("v", t_min, t_max, bbox).reduce_time(op)
    expected = getattr(window, op)(axis=0)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(case=cube_cases())
def test_reopen_matches_dense_oracle(case):
    """A cube rebuilt from storage answers sealed-step selections exactly.

    (Reopen only sees sealed steps: the tail lives in memory, so the
    oracle is trimmed to the sealed prefix.)"""
    cube, dense, times = build(case)
    sealed = cube.sealed_steps
    reopened = Cube.open(cube.store, "/cubes/prop")
    got = reopened.sel("v").read()
    assert np.array_equal(got, dense["v"][:sealed])
    assert reopened.times == times[:sealed]


@settings(max_examples=50, deadline=None)
@given(case=cube_cases())
def test_full_scan_roundtrip(case):
    """No selection at all: the cube stores exactly what went in."""
    cube, dense, _ = build(case)
    assert np.array_equal(cube.sel("v").read(), dense["v"])


# ----------------------------------------------------------------------
# Tiled compute (zonal series, NDVI mean, anomaly counts) vs the oracle
# ----------------------------------------------------------------------


def reopened(cube, dense, times):
    """The cube re-attached from storage sees the sealed prefix only."""
    sealed = cube.sealed_steps
    dense = {name: array[:sealed] for name, array in dense.items()}
    return Cube.open(cube.store, "/cubes/prop"), dense, times[:sealed]


@st.composite
def fields(draw, case):
    """Polygons in every position relative to the grid and the chunk grid."""
    height, width = case["height"], case["width"]
    extent_x, extent_y = width * PIXEL, height * PIXEL

    def box(x0, y0, x1, y1):  # map y is negative below the origin
        return Polygon.box(min(x0, x1), -max(y0, y1), max(x0, x1), -min(y0, y1))

    def coordinate(limit):
        """On a pixel center, on a pixel edge, or anywhere."""
        return draw(st.one_of(
            st.integers(0, limit - 1).map(lambda i: (i + 0.5) * PIXEL),
            st.integers(0, limit).map(lambda i: i * PIXEL),
            st.floats(0.0, limit * PIXEL, allow_nan=False),
        ))

    def anywhere():
        x0, y0 = coordinate(width), coordinate(height)
        return box(x0, y0, x0 + draw(st.floats(1.0, extent_x)),
                   y0 + draw(st.floats(1.0, extent_y)))

    def outside():
        return box(extent_x + 30.0, 10.0, extent_x + 90.0, 70.0)

    def straddling_edge():
        return box(-35.0, -25.0, coordinate(width) + 1.0, coordinate(height) + 1.0)

    def on_chunk_corner():
        cx = draw(st.integers(0, width // case["chunk_x"])) * case["chunk_x"] * PIXEL
        cy = draw(st.integers(0, height // case["chunk_y"])) * case["chunk_y"] * PIXEL
        reach = draw(st.floats(6.0, 45.0))
        return Polygon([(cx - reach, -cy), (cx, -cy + reach),
                        (cx + reach, -cy), (cx, -cy - reach)])

    def with_hole():
        x0, y0 = coordinate(width), coordinate(height)
        outer = box(x0, y0, x0 + 70.0, y0 + 60.0)
        hole = box(x0 + 15.0, y0 + 15.0, x0 + 45.0, y0 + 40.0)
        return Polygon(outer.exterior, interiors=[hole.exterior])

    def sliver():
        """Strictly between two center columns: holds no pixel center."""
        column = draw(st.integers(0, width - 1))
        return box((column + 0.5) * PIXEL + 1.0, 0.0,
                   (column + 0.5) * PIXEL + 9.0, extent_y)

    kinds = (anywhere, outside, straddling_edge, on_chunk_corner, with_hole,
             sliver)
    chosen = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    polygons = [kind() for kind in chosen]
    if draw(st.booleans()):
        polygons.append(polygons[0])  # fully overlapping: read once, applied twice
    return polygons


@settings(max_examples=80, deadline=None)
@given(data=st.data(), case=cube_cases(), reopen=st.booleans())
def test_zonal_series_matches_dense_oracle(data, case, reopen):
    cube, dense, times = build(case)
    polygons = data.draw(fields(case))
    t_min, t_max = times[case["t_lo"]], times[case["t_hi"]]
    if reopen:
        cube, dense, times = reopened(cube, dense, times)
    steps = [i for i, t in enumerate(times) if t_min <= t <= t_max]
    if not steps:
        with pytest.raises(DatacubeError, match="empty selection"):
            cube.zonal_series("v", polygons, t_min, t_max)
        return
    shape = (case["height"], case["width"])
    masks = [reference_mask(p, cube.schema.transform, shape) for p in polygons]
    window = dense["v"][steps[0] : steps[-1] + 1].astype(np.float64)
    expected = np.array([
        [slab[mask].mean() if mask.any() else np.nan for slab in window]
        for mask in masks
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty field must not divide 0 / 0
        got = cube.zonal_series("v", polygons, t_min, t_max)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0, equal_nan=True)


def test_zonal_field_kinds_are_what_they_say():
    """The strategy's fixed shapes, checked once on a known grid."""
    case = dict(height=16, width=16, chunk_t=2, chunk_y=8, chunk_x=8, steps=3,
                data_seed=1, flush=False, t_lo=0, t_hi=2, window=(0, 16, 0, 16))
    cube, dense, times = build(case)
    outside = Polygon.box(190.0, -70.0, 250.0, -10.0)
    sliver = Polygon.box(36.0, -160.0, 44.0, 0.0)
    corner = Polygon([(50.0, -80.0), (80.0, -50.0), (110.0, -80.0), (80.0, -110.0)])
    series = cube.zonal_series("v", [outside, sliver, corner])
    assert np.isnan(series[:2]).all() and np.isfinite(series[2]).all()
    window = pixel_window(cube.schema.transform, (16, 16), corner.bbox)
    assert window == (5, 11, 5, 11)  # centers 55 .. 105 m: all four chunks
    assert cube._plan("v", None, None, [window]).chunks_touched == 4


@settings(max_examples=60, deadline=None)
@given(case=cube_cases(), reopen=st.booleans())
def test_ndvi_temporal_mean_matches_dense_oracle(case, reopen):
    cube, dense, times = build(case, variables=("red", "nir"))
    t_min, t_max, bbox, index = case_selection(case, times)
    if reopen:
        cube, dense, times = reopened(cube, dense, times)
    red = dense["red"][index].astype(np.float64)
    nir = dense["nir"][index].astype(np.float64)
    if red.shape[0] == 0:
        with pytest.raises(DatacubeError, match="empty selection"):
            cube.ndvi_temporal_mean("red", "nir", t_min, t_max, bbox)
        return
    total = nir + red
    ndvi = np.where(total == 0.0, 0.0, (nir - red) / np.where(total == 0.0, 1.0, total))
    got = cube.ndvi_temporal_mean("red", "nir", t_min, t_max, bbox)
    assert got.shape == ndvi.shape[1:]
    # float32 index values summed in float32 per block, as the bench allows.
    assert np.allclose(got, ndvi.mean(axis=0), rtol=1e-5, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(case=cube_cases(), reopen=st.booleans(),
       k=st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_anomaly_counts_match_dense_oracle(case, reopen, k):
    cube, dense, times = build(case)
    t_min, t_max, bbox, index = case_selection(case, times)
    if reopen:
        cube, dense, times = reopened(cube, dense, times)
    window = dense["v"][index]
    if window.shape[0] == 0:
        with pytest.raises(DatacubeError, match="empty selection"):
            cube.anomaly_counts("v", k, t_min, t_max, bbox)
        return
    wide = window.astype(np.float64)
    mean = wide.mean(axis=0)
    std = np.sqrt(np.maximum(np.square(wide).mean(axis=0) - np.square(mean), 0.0))
    deviation = np.abs(wide - mean)
    got = cube.anomaly_counts("v", k, t_min, t_max, bbox)
    assert got.dtype == np.int64 and got.shape == (len(window),)
    # The cube sums float32 slabs (values in [0, 1): ~1e-7 off the float64
    # moments), so a deviation that close to its threshold — every pixel of
    # a two-step window at k = 1 — may fall on either side.
    margin = 1e-6
    certain = (deviation > k * std + margin).sum(axis=(1, 2))
    possible = (deviation > k * std - margin).sum(axis=(1, 2))
    assert ((certain <= got) & (got <= possible)).all()
