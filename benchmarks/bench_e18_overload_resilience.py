"""E18 — overload resilience: deadlines, breakers and admission control.

Paper claim: a production Copernicus platform serves many tenants at once,
so overload — flash crowds, flapping data sources — is a steady state, not
an incident. Expected shape: under the *same* seeded chaos schedule
(endpoint flaps + demand bursts), the protected stack (admission control +
circuit breakers + per-request deadlines) delivers strictly higher goodput
and strictly lower p99 latency than the unprotected one, which melts into
metastable overload (everything admitted, everything late).
"""

import pytest

from benchmarks.conftest import emit_bench_snapshot, print_series
from repro.obs import Observability
from repro.soaks.resilience import SoakConfig, run_soak
from repro.soaks.resilience import (
    REQUIRED_METRICS,
    snapshot_meta,
    verify_comparison,
)

SEED = 18


def soak_config(requests: int = 1200) -> SoakConfig:
    return SoakConfig(seed=SEED, requests=requests)


def test_e18_overload_resilience(benchmark):
    """Same chaos schedule, protection on vs off: goodput and tail latency."""
    results = {}
    obs = Observability()

    def sweep():
        config = soak_config()
        results["bare"] = run_soak(config, protected=False)
        results["protected"] = run_soak(config, protected=True, obs=obs)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    bare, protected = results["bare"], results["protected"]
    bare.verify()
    protected.verify()
    rows = []
    for label, report in (("unprotected", bare), ("protected", protected)):
        rows.append(
            {"config": label, "arrivals": report.arrivals, "ok": report.ok,
             "late": report.late, "failed": report.failed,
             "shed": report.shed, "expired": report.expired,
             "goodput_rps": report.goodput,
             "p99_s": report.p99_latency_s,
             "breaker_opens": report.breaker_opens}
        )
    print_series(
        "E18: overload soak (flapping backends + demand bursts, seed 18)",
        rows,
    )
    meta = snapshot_meta(bare, protected)
    benchmark.extra_info.update(
        {key: round(value, 4) for key, value in meta.items()}
    )
    emit_bench_snapshot("E18", obs, meta=meta, require=REQUIRED_METRICS)
    # Shape: the acceptance criteria of E18, written once beside the report.
    verify_comparison(bare, protected)


def test_e18_determinism(benchmark):
    """The soak is bit-for-bit reproducible: same config, same report."""
    results = {}

    def sweep():
        config = soak_config(requests=400)
        results["first"] = run_soak(config, protected=True)
        results["second"] = run_soak(config, protected=True)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    first, second = results["first"], results["second"]
    first.verify()
    assert first.summary() == second.summary()
    assert first.latencies_s == second.latencies_s
