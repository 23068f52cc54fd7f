"""E21 — multi-tenant serving: fairness, tail latency and coalescing.

Paper claim: the platform is a shared front door for "millions of users"
over one Copernicus catalogue, so tenant isolation is a serving-layer
property, not an afterthought. Expected shape: under the same seeded
open-loop workload (Zipf(1.5) tenant skew, diurnal swell, flash bursts,
~6x capacity offered at the mean), the gateway — per-tenant token-bucket
quotas, weighted-fair queueing, the E18 bulkhead and request coalescing —
keeps Jain's fairness index over per-tenant goodput near 1.0 and p99
within the deadline, while the unprotected FIFO collapses to the offered
(abusive) distribution: Jain below 0.5 and p99 two orders of magnitude
past the deadline. Coalescing measurably cuts duplicate backend
executions on top.
"""

import pytest

from benchmarks.conftest import emit_bench_snapshot, print_series
from repro.obs import Observability
from repro.soaks.serving import ServingSoakConfig, run_comparison, run_serving_soak
from repro.soaks.serving import (
    REQUIRED_METRICS,
    snapshot_meta,
    verify_comparison,
)

SEED = 21


def soak_config(requests: int = 120_000) -> ServingSoakConfig:
    return ServingSoakConfig(seed=SEED, requests=requests)


def test_e21_serving_fairness(benchmark):
    """Same abusive workload, gateway on vs off: Jain, p99, duplicates."""
    results = {}
    obs = Observability()

    def sweep():
        bare, guarded = run_comparison(soak_config(), obs=obs)
        results["bare"] = bare
        results["protected"] = guarded
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    bare, protected = results["bare"], results["protected"]
    rows = []
    for label, report in (("unprotected", bare), ("protected", protected)):
        summary = report.summary()
        rows.append(
            {"config": label, "arrivals": report.arrivals, "ok": report.ok,
             "late": int(summary["late"]), "shed": int(summary["shed"]),
             "quota": int(summary["quota_rejected"]),
             "coalesced": report.coalesced,
             "executions": report.executions,
             "jain": report.jain_goodput,
             "p99_s": report.p99_latency_s}
        )
    print_series(
        "E21: serving soak (8 Zipf tenants, ~6x capacity offered, seed 21)",
        rows,
    )
    meta = snapshot_meta(soak_config(), bare, protected)
    benchmark.extra_info.update({
        key: round(value, 4) if isinstance(value, float) else value
        for key, value in meta.items()
    })
    emit_bench_snapshot("E21", obs, meta=meta, require=REQUIRED_METRICS)
    # Shape: the acceptance criteria of E21, written once beside the report.
    verify_comparison(bare, protected)


def test_e21_determinism(benchmark):
    """The soak is bit-for-bit reproducible: same config, same report."""
    results = {}

    def sweep():
        config = soak_config(requests=8000)
        results["first"] = run_serving_soak(config, protected=True)
        results["second"] = run_serving_soak(config, protected=True)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    first, second = results["first"], results["second"]
    first.verify()
    assert first.summary() == second.summary()
    assert first.latencies_s == second.latencies_s
    assert first.tenant_rows() == second.tenant_rows()
