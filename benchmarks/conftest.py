"""Shared helpers for the experiment benches.

Every bench records its headline series in ``benchmark.extra_info`` so the
shape results (who wins, by what factor, where crossovers fall) appear in the
pytest-benchmark JSON/console output alongside the timings, and prints a
small table for EXPERIMENTS.md. Benches that carry a ``repro.obs``
Observability bundle also drop a ``BENCH_<NAME>.json`` snapshot (into
``$REPRO_OBS_DIR``, default cwd) via :func:`emit_bench_snapshot`, which
reads the file back through the schema validator and fails the bench if a
metric it lists in ``require=`` is missing — so in CI the bench's own exit
code is the gate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence


def emit_bench_snapshot(name: str, obs, meta: Optional[Dict] = None,
                        require: Sequence[str] = ()) -> str:
    """Write *obs* to the bench's ``BENCH_<NAME>.json``, validated and
    holding every metric named in *require*; returns the path."""
    from repro.obs import write_bench_snapshot

    path = write_bench_snapshot(name, obs, meta, require)
    print(f"\n[obs] snapshot written: {path}")
    return path


def print_series(title: str, rows: Iterable[Dict]) -> None:
    """Render a result series as an aligned console table."""
    rows = list(rows)
    if not rows:
        return
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(_fmt(r[h])) for r in rows)) for h in headers
    }
    print(f"\n== {title} ==")
    print("  " + "  ".join(str(h).ljust(widths[h]) for h in headers))
    for row in rows:
        print("  " + "  ".join(_fmt(row[h]).ljust(widths[h]) for h in headers))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
