"""E1 — HopsFS metadata scaling.

Paper claim: HopsFS scales "HDFS to more than 1 million operations per
second" by sharding namenode metadata [13]; the platform must scale to PBs
(Challenge C5). Expected shape: simulated metadata throughput grows near
linearly with the shard count, while the single-leader baseline stays flat;
the small-files optimisation removes all block allocations for small files.
"""

import pytest

from benchmarks.conftest import emit_bench_snapshot, print_series
from repro.hopsfs import BlockManager, HopsFS, SingleLeaderFS
from repro.hopsfs.kvstore import ShardedKVStore
from repro.hopsfs.workload import run_metadata_workload
from repro.obs import Observability

OPERATIONS = 4000
SHARD_COUNTS = (1, 2, 4, 8, 16)


def _run(shards: int, obs=None):
    fs = HopsFS(store=ShardedKVStore(shard_count=shards, obs=obs))
    return run_metadata_workload(fs, operations=OPERATIONS, seed=7)


def test_e01_throughput_vs_shards(benchmark):
    """Figure-style series: simulated metadata ops/s vs shard count."""
    obs = Observability()
    results = {}

    def workload():
        for shards in SHARD_COUNTS:
            with obs.tracer.span("bench.e01.sweep", shards=shards):
                results[shards] = _run(shards, obs=obs)
        return results

    benchmark.pedantic(workload, rounds=1, iterations=1)
    baseline = SingleLeaderFS()
    hdfs = run_metadata_workload(baseline, operations=OPERATIONS, seed=7)

    rows = [
        {
            "shards": shards,
            "sim_ops_per_s": result.ops_per_second,
            "speedup_vs_hdfs": result.ops_per_second / hdfs.ops_per_second,
            "multi_shard_frac": result.multi_shard_fraction,
        }
        for shards, result in results.items()
    ]
    rows.append(
        {
            "shards": "HDFS(1 leader)",
            "sim_ops_per_s": hdfs.ops_per_second,
            "speedup_vs_hdfs": 1.0,
            "multi_shard_frac": hdfs.multi_shard_fraction,
        }
    )
    print_series("E1: metadata throughput vs shards", rows)
    benchmark.extra_info["ops_per_second"] = {
        str(s): round(r.ops_per_second) for s, r in results.items()
    }
    for shards, result in results.items():
        obs.metrics.gauge("bench.e01.sim_ops_per_s", shards=shards).set(
            result.ops_per_second
        )
    emit_bench_snapshot(
        "e01", obs,
        meta={"experiment": "E1", "operations": OPERATIONS,
              "shard_counts": list(SHARD_COUNTS)},
        require=("bench.e01.sim_ops_per_s", "hopsfs.shard_op_ms"),
    )

    # Shape assertions: near-linear scaling, single leader flat.
    assert results[4].ops_per_second > results[1].ops_per_second * 2.5
    assert results[16].ops_per_second > results[4].ops_per_second * 2.0
    assert results[16].ops_per_second > hdfs.ops_per_second * 8


def test_e01_ablation_small_files(benchmark):
    """Ablation: the 'Size Matters' inline-small-files optimisation."""

    def build(threshold):
        fs = HopsFS(
            blocks=BlockManager(block_size=4096, replication=1, node_count=4),
            small_file_threshold=threshold,
        )
        fs.makedirs("/data/d")
        for i in range(300):
            fs.create(f"/data/d/f{i}", b"x" * 2000)
        return fs

    fs_on = benchmark.pedantic(lambda: build(64 * 1024), rounds=1, iterations=1)
    fs_off = build(0)
    print_series(
        "E1 ablation: small files inline",
        [
            {"threshold": "64 KB (on)", "blocks_allocated": fs_on.blocks.block_count},
            {"threshold": "0 (off)", "blocks_allocated": fs_off.blocks.block_count},
        ],
    )
    assert fs_on.blocks.block_count == 0
    assert fs_off.blocks.block_count == 300
