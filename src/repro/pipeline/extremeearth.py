"""The ExtremeEarth platform pipeline: ingest -> analyse -> knowledge -> query.

Wires the whole stack together the way Challenge C5 describes: products land
in HopsFS-sim and the semantic catalogue; scenes flow through the deep
learning classifiers on the simulated cluster; extracted information
(classification maps, probability rasters) and knowledge (icebergs, fields,
RDF) are materialised and registered; everything is queryable through the
catalogue afterwards.

The pipeline also keeps the books for two paper claims:

* **E10 (variety)** — "1PB of Sentinel data ... about 450TB of content
  information and knowledge": :meth:`information_ratio` is materialised
  information+knowledge bytes over raw scene bytes.
* **E13 (velocity)** — ingest throughput on the simulated cluster, with
  locality-aware scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import PipelineError
from repro.apps.foodsecurity.cropmap import extract_fields
from repro.apps.polar.icebergs import detect_icebergs
from repro.apps.polar.pcdss import encode_ice_chart
from repro.apps.polar.seaice import normalize_sar
from repro.catalog.service import SemanticCatalog
from repro.cluster.dataframe import SimContext
from repro.cluster.resources import ClusterSpec
from repro.hopsfs.filesystem import HopsFS
from repro.hopsfs.kvstore import ShardedKVStore
from repro.ml.network import Sequential, classify_patches
from repro.raster.products import Product
from repro.raster.sentinel import LandCover, SeaIce, SentinelScene
from repro.raster.stats import class_fractions
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.term import IRI


@dataclass
class IngestReport:
    """Outcome of an archive ingest run."""

    products: int
    raw_bytes: int
    simulated_seconds: float

    @property
    def products_per_second(self) -> float:
        if self.simulated_seconds == 0:
            return 0.0
        return self.products / self.simulated_seconds


@dataclass
class SceneReport:
    """Outcome of processing one scene."""

    scene_bytes: int
    information_bytes: int  # classification + probability rasters
    knowledge_entities: int  # icebergs / fields registered in the catalogue
    pcdss_bytes: int = 0


class ExtremeEarthPipeline:
    """The integrated platform."""

    def __init__(
        self,
        metadata_shards: int = 8,
        cluster: Optional[ClusterSpec] = None,
        ingest_cost_s_per_product: float = 0.05,
    ):
        if ingest_cost_s_per_product <= 0:
            raise PipelineError("ingest cost must be positive")
        self.fs = HopsFS(store=ShardedKVStore(shard_count=metadata_shards))
        self.catalog = SemanticCatalog()
        self.context = SimContext(
            cluster or ClusterSpec(node_count=4, cpu_slots_per_node=4),
            task_overhead_s=0.01,
            per_item_cost_s=ingest_cost_s_per_product,
        )
        self.fs.makedirs("/archive/products")
        self.fs.makedirs("/archive/knowledge")
        self._raw_bytes = 0
        self._information_bytes = 0
        self._knowledge_bytes = 0
        self._scenes_processed = 0

    # ------------------------------------------------------------------
    # Ingest (E13)
    # ------------------------------------------------------------------

    def ingest_archive(self, products: Sequence[Product]) -> IngestReport:
        """Register product metadata in HopsFS + the semantic catalogue.

        The per-product work (checksum, metadata extraction, registration)
        runs as a distributed job on the simulated cluster.
        """
        products = list(products)
        if not products:
            raise PipelineError("nothing to ingest")
        before = self.context.simulated_time_s

        collection = self.context.parallelize(products)
        registered = collection.map(self._register_product)
        count = registered.count()

        raw_bytes = sum(p.size_bytes for p in products)
        self._raw_bytes += raw_bytes
        self.catalog.add_products(products)
        return IngestReport(
            products=count,
            raw_bytes=raw_bytes,
            simulated_seconds=self.context.simulated_time_s - before,
        )

    def _register_product(self, product: Product) -> str:
        path = f"/archive/products/{product.name}.meta"
        record = (
            f"{product.mission.value},{product.product_type},"
            f"{product.sensing_time.isoformat()},{product.size_bytes}"
        ).encode()
        if not self.fs.exists(path):
            self.fs.create(path, record)
        return path

    # ------------------------------------------------------------------
    # Scene processing (E10 accounting)
    # ------------------------------------------------------------------

    def process_polar_scene(
        self,
        scene: SentinelScene,
        model: Sequential,
        patch_size: int = 8,
        pcdss_budget: int = 2048,
        observed_at: str = "2017-03-01T00:00:00",
    ) -> SceneReport:
        """Sea-ice pipeline: classify, extract icebergs, package for ships."""
        if scene.mission != "S1":
            raise PipelineError("polar pipeline expects a Sentinel-1 scene")
        stage_map, num_classes = classify_patches(
            model, normalize_sar(scene.grid.data), patch_size
        )
        information = _information_bytes(stage_map, num_classes)

        detections = detect_icebergs(scene)
        for detection in detections:
            self.catalog.add_iceberg(
                detection.detection_id, detection.outline, observed_at
            )
        message = encode_ice_chart(stage_map, byte_budget=pcdss_budget)
        self._register_content(stage_map, SeaIce)

        return self._account_scene(
            scene, int(information), len(detections), pcdss_bytes=len(message)
        )

    def process_agri_scene(
        self,
        scene: SentinelScene,
        model: Sequential,
        patch_size: int = 8,
        min_field_pixels: int = 16,
    ) -> SceneReport:
        """Food-security pipeline: crop map + field boundaries as knowledge."""
        if scene.mission != "S2":
            raise PipelineError("agri pipeline expects a Sentinel-2 scene")
        crop_map, num_classes = classify_patches(
            model, scene.grid.data, patch_size
        )
        information = _information_bytes(crop_map, num_classes)
        fields = extract_fields(
            crop_map, scene.grid, min_pixels=min_field_pixels
        )
        for index, (boundary, crop) in enumerate(fields):
            self.catalog.add_crop_field(
                f"s{self._scenes_processed}f{index}", str(crop), boundary
            )
        self._register_content(crop_map, LandCover)
        return self._account_scene(scene, int(information), len(fields))

    def _register_content(self, class_map: np.ndarray, class_enum) -> None:
        """Publish the scene's class composition as catalogue knowledge, so
        products become searchable by what is *in* them (Challenge C4)."""
        fractions = {}
        for value, fraction in class_fractions(class_map).items():
            try:
                fractions[class_enum(value).name] = fraction
            except ValueError:
                continue  # classifier indexes outside the enum: skip
        scene_iri = IRI(
            f"http://extremeearth.eu/scene/{self._scenes_processed + 1:06d}"
        )
        self.catalog.add_content_summary(scene_iri, fractions)

    def _account_scene(
        self,
        scene: SentinelScene,
        information_bytes: int,
        knowledge_entities: int,
        pcdss_bytes: int = 0,
    ) -> SceneReport:
        self._scenes_processed += 1
        scene_bytes = scene.grid.nbytes
        self._raw_bytes += scene_bytes
        self._information_bytes += information_bytes
        # Knowledge bytes: the serialized RDF lives in the catalogue store;
        # approximate with the N-Triples size of what this scene added.
        self._knowledge_bytes += knowledge_entities * 400
        path = f"/archive/knowledge/scene{self._scenes_processed:06d}.nt"
        sample = serialize_ntriples([]).encode() or b""
        if not self.fs.exists(path):
            self.fs.create(path, sample + b"#knowledge index\n")
        return SceneReport(
            scene_bytes=scene_bytes,
            information_bytes=information_bytes,
            knowledge_entities=knowledge_entities,
            pcdss_bytes=pcdss_bytes,
        )

    # ------------------------------------------------------------------
    # Claims accounting
    # ------------------------------------------------------------------

    @property
    def raw_bytes(self) -> int:
        return self._raw_bytes

    @property
    def information_bytes(self) -> int:
        return self._information_bytes + self._knowledge_bytes

    def information_ratio(self) -> float:
        """Materialised information+knowledge bytes / raw bytes (E10)."""
        if self._raw_bytes == 0:
            raise PipelineError("no data processed yet")
        return self.information_bytes / self._raw_bytes

    @property
    def scenes_processed(self) -> int:
        return self._scenes_processed


def _information_bytes(class_map: np.ndarray, num_classes: int) -> int:
    """Bytes of materialised "content information": the class map (int16 per
    pixel) plus per-pixel class probability rasters quantised to uint8 (the
    operational encoding of concentrations/confidences)."""
    pixels = class_map.size
    return class_map.astype(np.int16).nbytes + num_classes * pixels
