"""E24 — Earth System Data Cube: pruning, parity, and tiled compute.

Paper claim: Extreme Earth analytics means queries over *continental,
multi-year* Copernicus archives, which a scene-at-a-time raster layer
cannot express. Expected shape: a chunked, time-indexed cube answers
seeded bbox/time-window selections touching a strict subset of its sealed
chunks (pruning ratio well above 1), returns bit-identical results to a
dense in-memory ndarray oracle, computes windowed temporal aggregates
faster tiled than by materializing the whole cube, and never rewrites a
sealed chunk during incremental append (every chunk path written once).
"""

from benchmarks.conftest import emit_bench_snapshot, print_series
from repro.obs import Observability
from repro.datacube.bench import (
    REQUIRED_METRICS,
    DatacubeBenchConfig,
    run_datacube_bench,
    verify_report,
)

SEED = 24


def test_e24_datacube(benchmark):
    """Seeded cube build + query sweep: pruning, parity, tiled speedup."""
    results = {}
    obs = Observability()

    def sweep():
        results["report"] = run_datacube_bench(
            DatacubeBenchConfig(seed=SEED), obs=obs
        )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = results["report"]
    print_series(
        "E24: datacube pruning & parity (seeded queries, seed 24)",
        [
            {
                "grid": report["grid"],
                "steps": report["steps"],
                "sealed_chunks": report["sealed_chunks"],
                "queries": report["queries"],
                "touched": report["chunks_touched"],
                "total": report["chunks_total"],
                "pruning": report["pruning_ratio"],
                "tiled_s": report["tiled_s"],
                "whole_s": report["whole_s"],
            }
        ],
    )
    benchmark.extra_info.update(
        {
            "pruning_ratio": report["pruning_ratio"],
            "parity": f"{report['parity_equal']}/{report['parity_checked']}",
            "speedup": report["speedup"],
        }
    )
    emit_bench_snapshot("E24", obs, meta=report, require=REQUIRED_METRICS)
    # Shape: the acceptance criteria of E24, written once beside the bench.
    verify_report(report)


def test_e24_determinism():
    """Same seed, same report (modulo wall-clock fields)."""
    config = DatacubeBenchConfig(seed=SEED, height=128, width=128, steps=8,
                                 queries=10)
    first = run_datacube_bench(config)
    second = run_datacube_bench(config)
    volatile = {"tiled_s", "whole_s", "speedup"}
    assert {k: v for k, v in first.items() if k not in volatile} == {
        k: v for k, v in second.items() if k not in volatile
    }
