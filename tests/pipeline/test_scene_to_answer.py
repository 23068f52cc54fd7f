"""Scene to answer, each step once, pinned against the algorithms it replaced.

* The pipeline classifies a scene in one forward pass; its class maps and
  :class:`SceneReport` equal a reference running the former two-pass code
  (the tiling loop, then a second pass over a second tiling for the class
  count).
* Iceberg detection works on each component's padded bounding box; its
  detections equal the former full-scene loop's.
* The flagship question is two GeoSPARQL queries; its count equals the
  former fetch-everything Python loop's, on random catalogues.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from repro.apps.foodsecurity import build_crop_classifier
from repro.apps.foodsecurity.cropmap import classify_scene, extract_fields
from repro.apps.polar import build_ice_classifier
from repro.apps.polar.icebergs import (
    IcebergDetection,
    detect_icebergs,
    embed_truth_icebergs,
)
from repro.apps.polar.pcdss import encode_ice_chart
from repro.apps.polar.seaice import classify_ice_scene, normalize_sar
from repro.catalog import SemanticCatalog
from repro.errors import CatalogError, MLError
from repro.geometry import Point, Polygon, contains
from repro.geosparql.literals import literal_geometry
from repro.ml import classify_patches
from repro.pipeline import ExtremeEarthPipeline
from repro.raster import GeoTransform, RasterGrid, sea_ice_field, sentinel1_scene
from repro.raster.sentinel import SentinelScene, landcover_field, sentinel2_scene
from repro.sparql import Variable


# ---------------------------------------------------------------------------
# The former algorithms, kept as oracles
# ---------------------------------------------------------------------------


def reference_classify(model, data, patch_size):
    """The former per-app tiling loop."""
    _, rows, cols = data.shape
    out = np.zeros((rows, cols), dtype=np.int16)
    starts_r = list(range(0, rows - patch_size + 1, patch_size))
    starts_c = list(range(0, cols - patch_size + 1, patch_size))
    if starts_r[-1] + patch_size < rows:
        starts_r.append(rows - patch_size)
    if starts_c[-1] + patch_size < cols:
        starts_c.append(cols - patch_size)
    patches, spans = [], []
    for r in starts_r:
        for c in starts_c:
            patches.append(data[:, r : r + patch_size, c : c + patch_size])
            spans.append((r, c))
    predictions = model.predict(np.stack(patches))
    for (r, c), label in zip(spans, predictions):
        out[r : r + patch_size, c : c + patch_size] = label
    return out


def reference_class_count(model, data, patch_size):
    """The former second pass: probabilities over a second tiling."""
    bands, rows, cols = data.shape
    usable_r = (rows // patch_size) * patch_size
    usable_c = (cols // patch_size) * patch_size
    patches = (
        data[:, :usable_r, :usable_c]
        .reshape(bands, usable_r // patch_size, patch_size,
                 usable_c // patch_size, patch_size)
        .transpose(1, 3, 0, 2, 4)
        .reshape(-1, bands, patch_size, patch_size)
    )
    return model.predict_proba(patches).shape[1]


def reference_detect(scene: SentinelScene) -> List[IcebergDetection]:
    """The former detector: every component scanned over the whole scene."""
    contrast_db, min_pixels, max_pixels = 6.0, 2, 400
    water_margin_db = 3.0
    vv = scene.grid.band(0)
    local_background = ndimage.median_filter(vv, size=9)
    water_level = float(np.quantile(vv, 0.2))
    candidates = (vv > local_background + contrast_db) & (
        local_background <= water_level + water_margin_db
    )
    labelled, count = ndimage.label(candidates, structure=np.ones((3, 3)))
    detections = []
    transform = scene.grid.transform
    size = transform.pixel_size
    for component in range(1, count + 1):
        component_mask = labelled == component
        rows, cols = np.nonzero(component_mask)
        if not (min_pixels <= rows.size <= max_pixels):
            continue
        ring = ndimage.binary_dilation(component_mask, iterations=2) & ~component_mask
        if np.quantile(vv[ring], 0.75) > water_level + water_margin_db:
            continue
        min_x = transform.origin_x + cols.min() * size
        max_x = transform.origin_x + (cols.max() + 1) * size
        max_y = transform.origin_y - rows.min() * size
        min_y = transform.origin_y - (rows.max() + 1) * size
        detections.append(
            IcebergDetection(
                detection_id=f"d{scene.day_of_year:03d}_{component:04d}",
                outline=Polygon.box(min_x, min_y, max_x, max_y),
                centroid=Point(
                    transform.origin_x + (cols.mean() + 0.5) * size,
                    transform.origin_y - (rows.mean() + 0.5) * size,
                ),
                area_m2=float(rows.size * size * size),
                mean_backscatter_db=float(vv[rows, cols].mean()),
                day_of_year=scene.day_of_year,
            )
        )
    return detections


def reference_flagship(catalog: SemanticCatalog, region_name, year) -> int:
    """The former Python loop, with the documented extent ranking: largest
    area, a geometry without an area below every polygon, then the
    lexically smallest WKT."""
    regions = catalog.query(
        "SELECT ?name ?g ?t WHERE { ?r rdf:type eop:IceRegion . "
        "?r eop:regionName ?name . "
        "?r eop:observedAt ?t . ?r geo:hasGeometry ?geom . ?geom geo:asWKT ?g }"
    )
    year_prefix = str(year)
    candidates = []
    for solution in regions:
        if str(solution[Variable("name")]) == region_name and str(
            solution[Variable("t")]
        ).startswith(year_prefix):
            wkt = solution[Variable("g")]
            geometry = literal_geometry(wkt)
            area = getattr(geometry, "area", None)
            candidates.append(
                ((-1.0 if area is None else area), wkt.lexical, geometry)
            )
    if not candidates:
        raise CatalogError("no observations")
    best = max(c[0] for c in candidates)
    extent = min((c for c in candidates if c[0] == best), key=lambda c: c[1])[2]
    icebergs = catalog.query(
        "SELECT ?b ?g ?t WHERE { ?b rdf:type eop:Iceberg . "
        "?b eop:observedAt ?t . ?b geo:hasGeometry ?geom . ?geom geo:asWKT ?g }"
    )
    embedded = set()
    for solution in icebergs:
        if not str(solution[Variable("t")]).startswith(year_prefix):
            continue
        if contains(extent, literal_geometry(solution[Variable("g")])):
            embedded.add(solution[Variable("b")])
    return len(embedded)


# ---------------------------------------------------------------------------
# One patch classifier, one forward pass per scene
# ---------------------------------------------------------------------------


def polar_scene(seed, height=64, width=64):
    truth = sea_ice_field(height, width, seed=seed, ice_extent=0.5)
    truth, _ = embed_truth_icebergs(truth, count=6, seed=seed)
    return sentinel1_scene(truth, seed=seed, looks=8)


def agri_scene(seed, height=64, width=64):
    return sentinel2_scene(landcover_field(height, width, seed=seed), seed=seed)


class TestOnePass:
    @pytest.mark.parametrize("shape", [(64, 64), (70, 45)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_class_maps_equal_the_tiling_loop(self, seed, shape):
        ice_model = build_ice_classifier(seed=seed)
        crop_model = build_crop_classifier(num_classes=8, seed=seed)
        scene = polar_scene(seed, *shape)
        assert np.array_equal(
            classify_ice_scene(ice_model, scene),
            reference_classify(ice_model, normalize_sar(scene.grid.data), 8),
        )
        scene = agri_scene(seed, *shape)
        assert np.array_equal(
            classify_scene(crop_model, scene),
            reference_classify(crop_model, scene.grid.data, 8),
        )

    def test_class_count_is_the_logit_width(self):
        model = build_crop_classifier(num_classes=6)
        scene = agri_scene(3, 40, 24)
        class_map, width = classify_patches(model, scene.grid.data, 8)
        assert width == 6 == reference_class_count(model, scene.grid.data, 8)
        assert class_map.dtype == np.int16 and class_map.shape == (40, 24)

    def test_scene_smaller_than_a_patch_is_refused(self):
        model = build_crop_classifier(num_classes=4)
        with pytest.raises(MLError):
            classify_patches(model, np.zeros((13, 7, 16), np.float32), 8)
        with pytest.raises(MLError):
            classify_ice_scene(build_ice_classifier(), polar_scene(0, 16, 16), 32)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scene_reports_equal_the_two_pass_reference(self, seed):
        ice_model = build_ice_classifier(seed=seed)
        crop_model = build_crop_classifier(num_classes=8, seed=seed)
        pipeline = ExtremeEarthPipeline(metadata_shards=2)
        scene = polar_scene(seed, 64, 72)
        stage_map = reference_classify(ice_model, normalize_sar(scene.grid.data), 8)
        classes = reference_class_count(ice_model, normalize_sar(scene.grid.data), 8)
        report = pipeline.process_polar_scene(scene, ice_model)
        assert report.scene_bytes == scene.grid.nbytes
        assert report.information_bytes == stage_map.astype(np.int16).nbytes + (
            classes * stage_map.size
        )
        assert report.knowledge_entities == len(reference_detect(scene))
        assert report.pcdss_bytes == len(encode_ice_chart(stage_map, byte_budget=2048))

        scene = agri_scene(seed, 56, 64)
        crop_map = reference_classify(crop_model, scene.grid.data, 8)
        classes = reference_class_count(crop_model, scene.grid.data, 8)
        report = pipeline.process_agri_scene(scene, crop_model)
        assert report.information_bytes == crop_map.astype(np.int16).nbytes + (
            classes * crop_map.size
        )
        assert report.knowledge_entities == len(
            extract_fields(crop_map, scene.grid, min_pixels=16)
        )
        assert report.pcdss_bytes == 0


# ---------------------------------------------------------------------------
# Per-component iceberg windows
# ---------------------------------------------------------------------------


def edge_scene() -> SentinelScene:
    """Dark water with bright targets on every edge and in the corners."""
    rng = np.random.default_rng(7)
    vv = rng.normal(-22.0, 0.5, size=(48, 40)).astype(np.float32)
    for r, c in [(0, 0), (0, 20), (20, 0), (46, 38), (47, 10), (10, 39), (24, 20)]:
        vv[r : r + 2, c : c + 2] = -2.0
    vv[30:32, 6:9] = -4.0  # interior, three pixels wide
    data = np.stack([vv, vv - 6.0])
    return SentinelScene(
        grid=RasterGrid(data, GeoTransform(500.0, 9000.0, 40.0)),
        truth=np.zeros(vv.shape, dtype=np.int16),
        mission="S1",
        day_of_year=91,
    )


class TestComponentWindows:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_detections_equal_the_full_scene_loop(self, seed):
        truth = sea_ice_field(96, 96, seed=seed, ice_extent=0.4)
        truth, _ = embed_truth_icebergs(truth, count=10, seed=seed)
        scene = sentinel1_scene(truth, seed=seed, looks=8)
        expected = reference_detect(scene)
        assert expected
        assert detect_icebergs(scene) == expected

    def test_components_on_the_scene_edge(self):
        scene = edge_scene()
        found = detect_icebergs(scene)
        assert found == reference_detect(scene)
        height, width = scene.shape
        size = scene.grid.transform.pixel_size
        origin_x = scene.grid.transform.origin_x
        origin_y = scene.grid.transform.origin_y
        touching = [
            d for d in found
            if d.outline.bbox.min_x == origin_x
            or d.outline.bbox.max_y == origin_y
            or d.outline.bbox.max_x == origin_x + width * size
            or d.outline.bbox.min_y == origin_y - height * size
        ]
        assert len(touching) >= 4


# ---------------------------------------------------------------------------
# The flagship question in GeoSPARQL
# ---------------------------------------------------------------------------

YEARS = ("2016", "2017", "2018")

def geometries(sizes, span):
    """Boxes, triangles and points; few sizes, so equal areas (the
    tie-break) come up often."""

    @st.composite
    def draw_geometry(draw):
        kind = draw(st.sampled_from(["box", "box", "triangle", "point"]))
        x, y = draw(span), draw(span)
        if kind == "point":
            return Point(float(x), float(y))
        w, h = draw(st.sampled_from(sizes)), draw(st.sampled_from(sizes))
        if kind == "box":
            return Polygon.box(float(x), float(y), float(x + w), float(y + h))
        return Polygon([(x, y), (x + w, y), (x, y + h)])

    return draw_geometry()


region_geometries = geometries([8, 16, 30], st.integers(0, 15))
region = st.tuples(
    st.sampled_from(["Barrier", "Bay"]), st.sampled_from(YEARS), region_geometries
)
berg = st.tuples(st.sampled_from(YEARS), geometries([1, 2], st.integers(0, 30)))


class TestFlagshipQuery:
    @settings(max_examples=60, deadline=None)
    @given(
        anchor=st.tuples(st.sampled_from(YEARS), region_geometries),
        regions=st.lists(region, max_size=7),
        bergs=st.lists(berg, min_size=10, max_size=40),
    )
    def test_count_equals_the_python_loop(self, anchor, regions, bergs):
        """*anchor* is a Barrier observation in the year asked about."""
        year = anchor[0]
        catalog = SemanticCatalog()
        observations = [("Barrier",) + anchor] + regions
        for index, (name, observed, geometry) in enumerate(observations):
            catalog.add_ice_region(
                f"r{index}", name, geometry,
                f"{observed}-0{index % 9 + 1}-01T00:00:00",
            )
        for index, (observed, geometry) in enumerate(bergs):
            catalog.add_iceberg(f"b{index}", geometry, f"{observed}-06-01T00:00:00")
        assert catalog.count_icebergs_embedded("Barrier", int(year)) == (
            reference_flagship(catalog, "Barrier", year)
        )
        with pytest.raises(CatalogError):
            catalog.count_icebergs_embedded("Barrier", 1999)

    def test_equal_areas_go_to_the_smallest_wkt(self):
        catalog = SemanticCatalog()
        catalog.add_ice_region(
            "a", "Barrier", Polygon.box(50, 0, 60, 10), "2017-01-01T00:00:00"
        )
        catalog.add_ice_region(
            "b", "Barrier", Polygon.box(0, 0, 10, 10), "2017-02-01T00:00:00"
        )
        for index, x in enumerate([52, 55, 5]):
            catalog.add_iceberg(f"b{index}", Point(x, 5), "2017-03-01T00:00:00")
        # "POLYGON ((0 0, ..." sorts before "POLYGON ((50 0, ...".
        assert catalog.count_icebergs_embedded("Barrier", 2017) == 1

    def test_a_point_never_beats_a_polygon(self):
        catalog = SemanticCatalog()
        catalog.add_ice_region("p", "Barrier", Point(5.0, 5.0), "2017-01-01T00:00:00")
        catalog.add_ice_region(
            "q", "Barrier", Polygon.box(20, 20, 20.5, 20.5), "2017-02-01T00:00:00"
        )
        catalog.add_iceberg("on-point", Point(5.0, 5.0), "2017-03-01T00:00:00")
        catalog.add_iceberg("in-box", Point(20.2, 20.2), "2017-03-01T00:00:00")
        catalog.add_iceberg("in-box-2", Point(20.4, 20.1), "2017-03-01T00:00:00")
        catalog.add_iceberg("in-box-2016", Point(20.3, 20.3), "2016-03-01T00:00:00")
        assert catalog.count_icebergs_embedded("Barrier", 2017) == 2


# ---------------------------------------------------------------------------
# Catalogue constants are escaped
# ---------------------------------------------------------------------------


def recording(catalog: SemanticCatalog) -> List[str]:
    texts: List[str] = []
    query = catalog.store.query

    def record(text, *args, **kwargs):
        texts.append(text)
        return query(text, *args, **kwargs)

    catalog.store.query = record
    return texts


class TestQuotedConstants:
    def test_region_name_with_quotes(self):
        catalog = SemanticCatalog()
        catalog.add_ice_region(
            "r", 'Bay "North"', Polygon.box(0, 0, 10, 10), "2017-03-01T00:00:00"
        )
        catalog.add_iceberg("b", Polygon.box(1, 1, 2, 2), "2017-04-01T00:00:00")
        assert catalog.count_icebergs_embedded('Bay "North"', 2017) == 1

    def test_search_constants_cannot_rewrite_the_query(self):
        from repro.raster import ProductArchive

        catalog = SemanticCatalog()
        catalog.add_products(ProductArchive(seed=1).generate(20))
        assert catalog.search_products(mission="S1")
        assert catalog.search_products(mission='S1" . ?p ?q ?r . #') == []
        assert catalog.search_products(product_type='x" } #') == []
        assert catalog.search_by_content('A"B') == []

    def test_plain_constants_keep_their_text(self):
        catalog = SemanticCatalog()
        texts = recording(catalog)
        catalog.search_products(
            mission="S1", product_type="GRD",
            start_time="2017-03-01", end_time="2017-04-01",
        )
        catalog.search_by_content("OLD_ICE", 0.25)
        assert texts[0].endswith(
            'SELECT DISTINCT ?p WHERE { ?p rdf:type eop:Product . '
            '?p eop:mission "S1" . ?p eop:productType "GRD" . '
            '?p eop:sensingTime ?t . FILTER (STR(?t) >= "2017-03-01") '
            'FILTER (STR(?t) <= "2017-04-01") }'
        )
        assert texts[1].endswith(
            'SELECT ?p ?fr WHERE { ?p eop:hasContent ?c . '
            '?c eop:contentClass "OLD_ICE" . ?c eop:contentFraction ?fr . '
            "FILTER (?fr >= 0.25) } ORDER BY DESC(?fr)"
        )
