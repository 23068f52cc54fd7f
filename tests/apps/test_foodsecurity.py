"""Food Security application tests."""

import numpy as np
import pytest

from repro.errors import MLError, ReproError
from repro.apps.foodsecurity import (
    PrometModel,
    SoilGrid,
    WeatherDay,
    build_crop_classifier,
    classify_scene,
    extract_fields,
    irrigation_advice,
    publish_advice,
    synthetic_weather,
    train_crop_classifier,
)
from repro.apps.foodsecurity.promet import crop_coefficient, hargreaves_et0_mm
from repro.datasets import make_eurosat
from repro.geometry import Polygon
from repro.ml import accuracy
from repro.raster import GeoTransform, LandCover, RasterGrid
from repro.raster.sentinel import landcover_field, sentinel2_scene
from repro.sparql import Variable
from tests.raster.test_rasterize_window import reference_mask


class TestCropClassifier:
    def test_build_shapes(self):
        model = build_crop_classifier(num_classes=8, patch_size=8)
        out = model.forward(np.zeros((2, 13, 8, 8)))
        assert out.shape == (2, 8)

    def test_patch_size_validation(self):
        with pytest.raises(MLError):
            build_crop_classifier(num_classes=3, patch_size=6)

    def test_train_and_classify_beats_chance(self):
        dataset = make_eurosat(samples=240, patch_size=8, num_classes=4, seed=0)
        model = build_crop_classifier(num_classes=4, seed=1)
        report = train_crop_classifier(model, dataset, epochs=4, batch_size=32)
        assert report.losses[-1] < report.losses[0]
        predictions = model.predict(dataset.x[:100])
        assert accuracy(predictions, dataset.y[:100]) > 0.5  # chance = 0.25

    def test_classify_scene_shape(self):
        truth = landcover_field(24, 32, seed=1)
        scene = sentinel2_scene(truth, seed=1)
        model = build_crop_classifier(num_classes=8)
        crop_map = classify_scene(model, scene, patch_size=8)
        assert crop_map.shape == (24, 32)

    def test_classify_scene_covers_edges(self):
        truth = landcover_field(20, 21, seed=2)  # not multiples of 8
        scene = sentinel2_scene(truth, seed=2)
        model = build_crop_classifier(num_classes=8)
        crop_map = classify_scene(model, scene, patch_size=8)
        assert crop_map.shape == (20, 21)

    def test_scene_too_small(self):
        truth = landcover_field(4, 4)
        scene = sentinel2_scene(truth)
        model = build_crop_classifier(num_classes=8)
        with pytest.raises(MLError):
            classify_scene(model, scene, patch_size=8)


class TestExtractFields:
    def test_two_fields(self):
        crop_map = np.zeros((20, 20), dtype=np.int16)
        crop_map[2:10, 2:10] = 3
        crop_map[12:18, 12:18] = 4
        grid = RasterGrid(np.zeros((20, 20)), GeoTransform(0, 200, 10))
        fields = extract_fields(crop_map, grid, min_pixels=10, crop_classes=(3, 4))
        assert len(fields) == 2
        crops = {crop for _, crop in fields}
        assert crops == {3, 4}

    def test_min_pixels_filters(self):
        crop_map = np.zeros((10, 10), dtype=np.int16)
        crop_map[0:2, 0:2] = 3
        grid = RasterGrid(np.zeros((10, 10)), GeoTransform(0, 100, 10))
        assert extract_fields(crop_map, grid, min_pixels=10, crop_classes=(3,)) == []

    def test_field_georeferencing(self):
        crop_map = np.zeros((10, 10), dtype=np.int16)
        crop_map[2:4, 5:8] = 3
        grid = RasterGrid(np.zeros((10, 10)), GeoTransform(0, 100, 10))
        [(boundary, crop)] = extract_fields(
            crop_map, grid, min_pixels=4, crop_classes=(3,)
        )
        box = boundary.bbox
        assert (box.min_x, box.max_x) == (50, 80)
        assert (box.max_y, box.min_y) == (80, 60)


class TestWeatherAndET:
    def test_synthetic_weather_length_and_season(self):
        weather = synthetic_weather(range(1, 366), seed=1)
        assert len(weather) == 365
        january = np.mean([w.temp_max_c for w in weather[:30]])
        july = np.mean([w.temp_max_c for w in weather[180:210]])
        assert july > january + 5

    def test_weather_validation(self):
        with pytest.raises(ReproError):
            WeatherDay(1, -1.0, 0, 10)
        with pytest.raises(ReproError):
            WeatherDay(1, 0.0, 10, 5)

    def test_et0_summer_exceeds_winter(self):
        summer = hargreaves_et0_mm(WeatherDay(180, 0, 14, 28))
        winter = hargreaves_et0_mm(WeatherDay(15, 0, -2, 4))
        assert summer > winter * 2
        assert summer < 12  # physically plausible mm/day

    def test_crop_coefficient_season(self):
        assert crop_coefficient(LandCover.MAIZE, 210) > 1.0
        assert crop_coefficient(LandCover.MAIZE, 20) < 0.4
        assert crop_coefficient(LandCover.BARE_SOIL, 180) == pytest.approx(0.25)


class TestPromet:
    def make_model(self, shape=(8, 8)):
        crop_map = np.full(shape, int(LandCover.WHEAT), dtype=np.int16)
        soil = SoilGrid.uniform(shape, capacity_mm=100.0)
        return PrometModel(crop_map, soil, GeoTransform(0, shape[0] * 10.0, 10.0))

    def test_step_outputs(self):
        model = self.make_model()
        day = model.step(WeatherDay(150, 5.0, 10, 22))
        assert day.storage_mm.shape == (8, 8)
        assert (day.water_availability >= 0).all()
        assert (day.water_availability <= 1).all()

    def test_mass_conservation(self):
        model = self.make_model()
        weather = synthetic_weather(range(100, 200), seed=2)
        model.run(weather)
        assert model.mass_balance_error_mm() < 1e-6

    def test_drought_drains_storage(self):
        model = self.make_model()
        for day in range(150, 200):
            model.step(WeatherDay(day, 0.0, 12, 26))
        assert model.storage_mm.mean() < 70.0 * 0.7

    def test_heavy_rain_produces_runoff(self):
        model = self.make_model()
        day = model.step(WeatherDay(150, 80.0, 10, 20))
        assert day.runoff_mm.sum() > 0

    def test_irrigation_restores_availability(self):
        dry = self.make_model()
        irrigated = self.make_model()
        for day in range(150, 180):
            weather = WeatherDay(day, 0.0, 12, 26)
            dry_day = dry.step(weather)
            irrigated.step(weather, irrigation_mm=dry_day.irrigation_demand_mm)
        assert irrigated.storage_mm.mean() > dry.storage_mm.mean()
        assert irrigated.mass_balance_error_mm() < 1e-6

    def test_demand_zero_for_non_crops(self):
        crop_map = np.full((4, 4), int(LandCover.URBAN), dtype=np.int16)
        model = PrometModel(
            crop_map, SoilGrid.uniform((4, 4)), GeoTransform(0, 40, 10)
        )
        for day in range(150, 170):
            out = model.step(WeatherDay(day, 0.0, 12, 26))
        assert out.irrigation_demand_mm.sum() == 0.0

    def test_crop_specific_demand(self):
        """Maize (summer crop) demands more water in August than wheat."""
        shape = (4, 4)
        soil = SoilGrid.uniform(shape, 100.0)
        wheat = PrometModel(
            np.full(shape, int(LandCover.WHEAT), dtype=np.int16), soil,
            GeoTransform(0, 40, 10),
        )
        maize = PrometModel(
            np.full(shape, int(LandCover.MAIZE), dtype=np.int16),
            SoilGrid.uniform(shape, 100.0), GeoTransform(0, 40, 10),
        )
        total_wheat = total_maize = 0.0
        for day in range(213, 243):  # August
            weather = WeatherDay(day, 0.0, 14, 30)
            total_wheat += wheat.step(weather).et_actual_mm.sum()
            total_maize += maize.step(weather).et_actual_mm.sum()
        assert total_maize > total_wheat

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            PrometModel(
                np.zeros((4, 4)), SoilGrid.uniform((5, 5)), GeoTransform(0, 40, 10)
            )
        with pytest.raises(ReproError):
            SoilGrid(np.zeros((2, 2)))

    def test_availability_grid(self):
        model = self.make_model()
        day = model.step(WeatherDay(150, 0.0, 10, 20))
        grid = model.availability_grid(day)
        assert grid.shape == (1, 8, 8)
        assert grid.resolution == 10.0


class TestIrrigationAdvice:
    def setup_maps(self):
        transform = GeoTransform(0, 100, 10)
        availability = np.full((10, 10), 0.8)
        availability[:, :5] = 0.2  # left half is dry
        demand = np.zeros((10, 10))
        demand[:, :5] = 30.0
        fields = [
            (Polygon.box(0, 0, 40, 100), 3),  # dry field
            (Polygon.box(60, 0, 100, 100), 4),  # wet field
        ]
        return (
            fields,
            RasterGrid(availability, transform),
            RasterGrid(demand, transform),
        )

    def test_advice(self):
        fields, availability, demand = self.setup_maps()
        advice = irrigation_advice(fields, availability, demand)
        assert len(advice) == 2
        dry = next(a for a in advice if a.crop == 3)
        wet = next(a for a in advice if a.crop == 4)
        assert dry.irrigate and not wet.irrigate
        assert dry.demand_mm > wet.demand_mm

    def test_windowed_fields_give_the_full_grid_floats(self):
        """Each field is rasterized on its own pixel window; the values it
        gathers are the full-grid mask's, in the same order, so the means are
        bit-identical to ``band[full_grid_mask].mean()`` — fields inside,
        across the map edge, off the map, and on pixel centers included."""
        transform = GeoTransform(3.0, 97.0, 0.3)
        rng = np.random.default_rng(4)
        availability = RasterGrid(rng.random((40, 50)), transform)
        demand = RasterGrid(rng.random((40, 50)) * 40.0, transform)
        center_x, center_y = transform.pixel_to_map(7, 9)
        fields = [
            (Polygon.regular(8.0, 92.0, 3.1, 7), 1),
            (Polygon.box(center_x, center_y - 2.0, center_x + 2.4, center_y), 2),
            (Polygon.box(-5.0, 80.0, 6.0, 120.0), 3),  # across the corner
            (Polygon.box(500.0, 500.0, 510.0, 510.0), 4),  # off the map
            (Polygon([(4.0, 90.0), (17.0, 95.5), (9.5, 86.0), (16.0, 85.5)]), 5),
        ]
        advice = irrigation_advice(fields, availability, demand)
        assert [item.crop for item in advice] == [1, 2, 3, 5]
        by_crop = {item.crop: item for item in advice}
        for boundary, crop in fields:
            mask = reference_mask(boundary, transform, (40, 50))
            if crop == 4:
                assert not mask.any()
                continue
            item = by_crop[crop]
            assert item.mean_availability == float(availability.band(0)[mask].mean())
            assert item.demand_mm == float(demand.band(0)[mask].mean())

    def test_threshold_validation(self):
        fields, availability, demand = self.setup_maps()
        with pytest.raises(ReproError):
            irrigation_advice(fields, availability, demand, irrigate_below=0.0)

    def test_publish_linked_data(self):
        fields, availability, demand = self.setup_maps()
        advice = irrigation_advice(fields, availability, demand)
        store = publish_advice(advice)
        result = store.query(
            "PREFIX agri: <http://extremeearth.eu/agri#> "
            "SELECT ?f WHERE { ?f agri:irrigationAdvised true }"
        )
        assert len(result) == 1
        # Spatial query over the published advice works too.
        from repro.geosparql import geometry_literal

        window = geometry_literal(Polygon.box(0, 0, 50, 50))
        spatial = store.query(
            "PREFIX geo: <http://www.opengis.net/ont/geosparql#> "
            "PREFIX geof: <http://www.opengis.net/def/function/geosparql/> "
            "SELECT ?f WHERE { ?f geo:hasGeometry ?g . ?g geo:asWKT ?w . "
            f'FILTER (geof:sfIntersects(?w, "{window.lexical}"^^geo:wktLiteral)) }}'
        )
        assert len(spatial) == 1
