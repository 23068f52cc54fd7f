"""The declared metric catalogue: every name the benchmark may print.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics (the smoke test pins the two against each other); this module adds
what that file's fixed schema has no room for — which end-to-end metric a
layer metric should move, where it should stay inert, and which counts must
repeat exactly for a given seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: Dict[str, str] = {
    "sparql_small_burst": (
        "2k-triple store, bursts of 16 requests drawn from 2000 texts (plan "
        "cache holds 256): gateway, parser, algebra and cache dominate"
    ),
    "sparql_large_read": (
        "120k-triple store, six fixed query texts that fit every cache: "
        "vector kernels, term decode and the spatial scan dominate"
    ),
    "sparql_write_read": (
        "50k-triple store, a write batch every 5th op bumps Graph.version: "
        "plan-cache invalidation and codec/snapshot sync beside reads"
    ),
    "sparql_dist": (
        "50k-triple graph behind DistBackend, 8 partitions x 2 replicas: "
        "dist planning, scheduler tasks and shuffle materialisation"
    ),
    "cube_pipeline": (
        "scene ingest, windowed sel().read(), zonal series and NDVI mean on "
        "a block-layout cube over HopsFS: numpy slabs and chunk codec"
    ),
    "hopsfs_meta_wal": (
        "HopsFS metadata mix (stat/listdir/create/read/delete) on 4 shards "
        "with the WAL on, periodic checkpoints, crash and recover"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("throughput_ops_s", "ops/s", "higher", 0.25,
             "operations completed per wall second; upper quartile over the rounds"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median wall latency of a round's latency ops; lower quartile "
             "over the rounds"),
    EndToEnd("latency_p95_ms", "ms", "lower", 0.25,
             "95th percentile of the same per-round samples; lower quartile "
             "over the rounds"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25,
             "process CPU time per operation; lower quartile over the rounds"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "wall time to load the workload's data into the program and "
             "warm it; median of several set-ups in one run"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "max resident set size of the workload's process"),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool  #: a count that must repeat exactly for a given seed
    moves: str  #: the end-to-end metric / workload it should move
    inert: str  #: where it should not move anything


def _layers() -> List[Layer]:
    small, large = "sparql_small_burst", "sparql_large_read"
    write, dist = "sparql_write_read", "sparql_dist"
    cube, meta = "cube_pipeline", "hopsfs_meta_wal"
    sparql_inert = f"{cube}, {meta} (always 0)"
    rows = [
        ("obs.trace_overhead_ratio", "ratio", "lower", False,
         "none (per-layer by design)", "all end-to-end metrics (untraced)"),
        ("serving.self_ms_per_req", "ms", "lower", False,
         f"latency_p50_ms, throughput_ops_s on {small}", f"< 2% of a request on {large}"),
        ("serving.allon_overhead_ratio", "ratio", "lower", False,
         f"latency_p50_ms on {small}", large),
        ("serving.coalesced_share", "ratio", "higher", True,
         f"throughput_ops_s on {small}", "synchronous workloads (0)"),
        ("serving.executions_per_req", "ratio", "lower", True,
         f"throughput_ops_s on {small}", "synchronous workloads (1)"),
        ("serving.queue_depth_max", "count", "lower", True,
         f"latency_p95_ms on {small}", "synchronous workloads (1)"),
        ("cache.plan_hit_rate", "ratio", "higher", True,
         f"latency_p50_ms on {small}, {write}", f"{large} (1.0)"),
        ("cache.parse_hit_rate", "ratio", "higher", True,
         f"latency_p50_ms on {small}", f"{large} (1.0)"),
        ("cache.plan_evictions", "count", "lower", True,
         f"latency_p50_ms on {small}, {write}", f"{large} (0)"),
        ("sparql.parser.ms_per_query", "ms", "lower", False,
         f"latency_p50_ms on {small}", f"{large} (cached)"),
        ("sparql.algebra.compile_ms_per_query", "ms", "lower", False,
         f"latency_p50_ms on {small}, post-write reads of {write}", f"{large} (cached)"),
        ("sparql.vector.exec_ms_per_query", "ms", "lower", False,
         f"throughput_ops_s, latency on {large}", sparql_inert),
    ]
    rows += [
        (f"sparql.vector.exec_ms_by_shape.{shape}", "ms", "lower", False,
         f"latency on {large}", sparql_inert)
        for shape in SHAPES
    ]
    rows += [
        ("sparql.vector.us_per_result_row", "us", "lower", False,
         f"throughput_ops_s on {large}", sparql_inert),
        ("sparql.vector.rows_out_per_query", "rows", "lower", True,
         "none (workload size check)", sparql_inert),
        ("sparql.vector.fallback_ops", "count", "lower", True,
         f"latency_p95_ms on {large} (optional, spatial shapes)", sparql_inert),
        ("sparql.vector.first_read_after_write_ms", "ms", "lower", False,
         f"latency_p95_ms on {write}", "read-only workloads (0)"),
        ("sparql.vector.steady_read_ms", "ms", "lower", False,
         f"latency_p50_ms on {write}", "read-only workloads (0)"),
        ("sparql.evaluator.ref_ms_per_query", "ms", "lower", False,
         "none (reference line for the default engine)", "all"),
        ("sparql.governor.overhead_ratio", "ratio", "lower", False,
         f"cpu_ms_per_op on {small}, {large}, {write}", sparql_inert),
        ("sparql.governor.checkpoints_per_query", "count", "lower", True,
         f"cpu_ms_per_op on {small}, {large}, {write}", sparql_inert),
        ("sparql.dist.plan_ms_per_query", "ms", "lower", False,
         f"latency_p50_ms on {dist}", "all other workloads (0)"),
        ("sparql.dist.tasks_per_query", "count", "lower", True,
         f"cpu_ms_per_op on {dist}", "all other workloads (0)"),
        ("sparql.dist.comm_bytes_per_query", "bytes", "lower", True,
         f"throughput_ops_s on {dist}", "all other workloads (0)"),
        ("sparql.dist.locality_rate", "ratio", "higher", True,
         f"sparql.dist.makespan_ms_sim on {dist}", "all other workloads (0)"),
        ("sparql.dist.wall_vs_vector_ratio", "ratio", "lower", False,
         f"throughput_ops_s on {dist}", "all other workloads (0)"),
        ("sparql.dist.makespan_ms_sim", "ms", "lower", True,
         "none (sim clock, never an end-to-end number)", "all"),
        ("rdf.add_us_per_triple", "us", "lower", False,
         f"throughput_ops_s on {write}", "read-only workloads (0)"),
        ("rdf.remove_us_per_triple", "us", "lower", False,
         f"throughput_ops_s on {write}", "read-only workloads (0)"),
        ("rdf.bulk_load_triples_per_s", "1/s", "higher", False,
         "setup_s on the four sparql workloads", f"{cube}, {meta}"),
        ("geosparql.candidates_per_spatial_query", "count", "lower", True,
         f"spatial shape latency on {large}", f"{dist}, {cube}, {meta} (0)"),
        ("geosparql.spatial_query_ms", "ms", "lower", False,
         f"latency_p50_ms on {large}", f"{dist}, {cube}, {meta} (0)"),
        ("datacube.ingest_ms_per_scene", "ms", "lower", False,
         f"throughput_ops_s on {cube}", "all other workloads (0)"),
        ("datacube.sel_plan_us", "us", "lower", False,
         f"latency_p50_ms on {cube}", "all other workloads (0)"),
        ("datacube.read_ms_per_sel", "ms", "lower", False,
         f"latency_p50_ms on {cube}", "all other workloads (0)"),
        ("datacube.chunks_touched_per_sel", "count", "lower", True,
         f"latency_p50_ms on {cube}", "all other workloads (0)"),
        ("datacube.pruning_ratio", "ratio", "higher", True,
         f"latency_p50_ms on {cube}", "all other workloads (0)"),
        ("datacube.bytes_read_per_sel", "bytes", "lower", True,
         f"latency_p50_ms on {cube}", "all other workloads (0)"),
        ("datacube.zonal_ms", "ms", "lower", False,
         f"latency_p95_ms on {cube}", "all other workloads (0)"),
        ("datacube.reduce_ms", "ms", "lower", False,
         f"latency_p95_ms on {cube}", "all other workloads (0)"),
        ("datacube.encode_us_per_chunk", "us", "lower", False,
         f"throughput_ops_s on {cube} (ingest share)", "all other workloads (0)"),
        ("datacube.decode_us_per_chunk", "us", "lower", False,
         f"latency_p50_ms on {cube}", "all other workloads (0)"),
        ("datacube.open_ms", "ms", "lower", False,
         f"setup of a reader; one op on {cube}", "all other workloads (0)"),
        ("raster.window_ms_per_scene", "ms", "lower", False,
         f"throughput_ops_s on {cube} (ingest share)", "all other workloads (0)"),
        ("raster.rasterize_ms_per_polygon", "ms", "lower", False,
         f"latency_p95_ms on {cube} (zonal)", "all other workloads (0)"),
        ("hopsfs.create_us", "us", "lower", False,
         f"throughput_ops_s on {meta}; ingest share of {cube}", "sparql workloads (0)"),
        ("hopsfs.stat_us", "us", "lower", False,
         f"throughput_ops_s, latency_p50_ms on {meta}", "sparql workloads (0)"),
        ("hopsfs.read_us", "us", "lower", False,
         f"throughput_ops_s on {meta}", "sparql workloads (0)"),
        ("hopsfs.listdir_us", "us", "lower", False,
         f"latency_p95_ms on {meta}", "sparql workloads (0)"),
        ("hopsfs.delete_us", "us", "lower", False,
         f"throughput_ops_s on {meta}", "sparql workloads (0)"),
        ("hopsfs.kv_ops_per_fs_op", "ratio", "lower", True,
         f"throughput_ops_s on {meta}", "sparql workloads (0)"),
        ("hopsfs.multi_shard_share", "ratio", "lower", True,
         f"hopsfs.ops_per_s_sim on {meta}", "sparql workloads (0)"),
        ("hopsfs.self_share_of_ingest", "ratio", "lower", False,
         f"throughput_ops_s on {cube}", f"{meta} and sparql workloads (0)"),
        ("hopsfs.ops_per_s_sim", "1/s", "higher", True,
         "none (sim clock, never an end-to-end number)", "all"),
        ("durability.wal_bytes_per_user_byte", "ratio", "lower", True,
         f"throughput_ops_s on {meta}", f"negligible on {cube}"),
        ("durability.wal_records", "count", "lower", True,
         f"throughput_ops_s on {meta}", f"negligible on {cube}"),
        ("durability.wal_on_vs_off_ratio", "ratio", "lower", False,
         f"throughput_ops_s on {meta}", "all other workloads (0)"),
        ("durability.checkpoint_ms", "ms", "lower", False,
         f"latency_p95_ms on {meta} (periodic stall)", "all other workloads (0)"),
        ("durability.recover_ms", "ms", "lower", False,
         f"the final operation of {meta}", "all other workloads (0)"),
        ("durability.records_replayed", "count", "lower", True,
         f"durability.recover_ms on {meta}", "all other workloads (0)"),
    ]
    return [Layer(*row) for row in rows]


#: The six query shapes of the read workloads, in cycle order.
SHAPES: Tuple[str, ...] = ("join5", "group", "topk", "optional", "lookup", "spatial")

PER_LAYER: Tuple[Layer, ...] = tuple(_layers())
PER_LAYER_NAMES: Tuple[str, ...] = tuple(layer.name for layer in PER_LAYER)
EXACT_LAYERS = frozenset(layer.name for layer in PER_LAYER if layer.exact)
UNITS: Dict[str, str] = {
    **{metric.name: metric.unit for metric in END_TO_END},
    **{layer.name: layer.unit for layer in PER_LAYER},
}
