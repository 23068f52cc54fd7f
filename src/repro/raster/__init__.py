"""Raster substrate: grids, products, and synthetic Sentinel scenes.

The paper's data source is the Copernicus Sentinel archive; this package
provides the in-repo substitute: a parametric generator for Sentinel-1 SAR
and Sentinel-2 multispectral scenes over synthetic land-cover and sea-ice
fields, plus the grid/product machinery the pipeline and the applications
operate on.
"""

from repro.raster.grid import GeoTransform, RasterGrid, pixel_window
from repro.raster.products import Product, ProductArchive, ProductLevel, Mission
from repro.raster.sentinel import (
    LandCover,
    SeaIce,
    SentinelScene,
    landcover_field,
    sea_ice_field,
    sentinel1_scene,
    sentinel2_scene,
)
from repro.raster.tiles import Tile, iter_tiles
from repro.raster.timeseries import (
    crop_ndvi_profile,
    ice_concentration_profile,
    scene_time_series,
)
from repro.raster.stats import (
    polygon_masks,
    polygon_window_mask,
    rasterize_polygon,
    rasterize_window,
    zonal_mean,
    zonal_stats,
)

__all__ = [
    "GeoTransform",
    "LandCover",
    "Mission",
    "Product",
    "ProductArchive",
    "ProductLevel",
    "RasterGrid",
    "SeaIce",
    "SentinelScene",
    "Tile",
    "crop_ndvi_profile",
    "ice_concentration_profile",
    "iter_tiles",
    "landcover_field",
    "pixel_window",
    "polygon_masks",
    "polygon_window_mask",
    "rasterize_polygon",
    "rasterize_window",
    "scene_time_series",
    "sea_ice_field",
    "sentinel1_scene",
    "sentinel2_scene",
    "zonal_mean",
    "zonal_stats",
]
