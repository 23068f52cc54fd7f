"""The ``BENCH_*.json`` snapshot format.

One schema for every benchmark and experiment: a versioned JSON document
bundling the metrics registry and the tracer of an
:class:`~repro.obs.Observability` run, plus free-form ``meta`` (which
experiment, which parameters). Every writer and the test suite go through
:func:`validate_snapshot`, so the format is pinned; benches and experiment
CLIs write through :func:`write_bench_snapshot`, which also reads the file
back and checks the metric names the experiment promises.

``bench_snapshot_path`` centralises where benches write: the directory in
``$REPRO_OBS_DIR`` (default: the working directory), file name
``BENCH_<NAME>.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

from repro.errors import ObsError

SCHEMA = "repro.obs/v1"

_METRIC_SECTIONS = ("counters", "gauges", "histograms")
_SPAN_SECTIONS = ("aggregates", "spans", "dropped")


def snapshot_document(obs, meta: Optional[Dict] = None) -> Dict:
    """Render an Observability bundle as the versioned snapshot document."""
    return {
        "schema": SCHEMA,
        "meta": dict(meta or {}),
        "metrics": obs.metrics.snapshot(),
        "spans": obs.tracer.snapshot(),
    }


def write_snapshot(path: str, obs, meta: Optional[Dict] = None) -> str:
    """Write the snapshot document to *path*; returns the path written."""
    document = snapshot_document(obs, meta)
    validate_snapshot(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def bench_snapshot_path(name: str) -> str:
    """``$REPRO_OBS_DIR/BENCH_<NAME>.json`` (directory defaults to cwd)."""
    if not name or not name.replace("_", "").isalnum():
        raise ObsError(f"bench snapshot name must be alphanumeric, got {name!r}")
    directory = os.environ.get("REPRO_OBS_DIR", ".")
    return os.path.join(directory, f"BENCH_{name.upper()}.json")


def write_bench_snapshot(name: str, obs, meta: Optional[Dict] = None,
                         require: Sequence[str] = ()) -> str:
    """Write ``BENCH_<NAME>.json`` and prove a consumer can use it.

    The file is read back through :func:`validate_snapshot` and must hold a
    counter, gauge or histogram for every name in *require* — an experiment
    whose instrumentation silently stopped reporting fails where it writes.
    """
    path = write_snapshot(bench_snapshot_path(name), obs, meta)
    metrics = read_snapshot(path)["metrics"]
    present = {
        record["name"] for section in _METRIC_SECTIONS
        for record in metrics[section]
    }
    missing = sorted(set(require) - present)
    if missing:
        raise ObsError(f"{path} lacks required metrics {missing}")
    return path


def read_snapshot(path: str) -> Dict:
    """Load and validate a snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    validate_snapshot(document)
    return document


def validate_snapshot(document: Dict) -> None:
    """Raise :class:`ObsError` unless *document* is a well-formed snapshot."""
    if not isinstance(document, dict):
        raise ObsError("snapshot must be a JSON object")
    if document.get("schema") != SCHEMA:
        raise ObsError(
            f"unknown snapshot schema {document.get('schema')!r}; want {SCHEMA}"
        )
    if not isinstance(document.get("meta"), dict):
        raise ObsError("snapshot meta must be an object")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        raise ObsError("snapshot missing metrics section")
    for section in _METRIC_SECTIONS:
        records = metrics.get(section)
        if not isinstance(records, list):
            raise ObsError(f"metrics.{section} must be a list")
        for record in records:
            if not isinstance(record, dict) or "name" not in record:
                raise ObsError(f"metrics.{section} records need a name")
            if section == "histograms":
                missing = {"count", "sum", "buckets"} - set(record)
                if missing:
                    raise ObsError(f"histogram record missing {sorted(missing)}")
            elif "value" not in record:
                raise ObsError(f"metrics.{section} records need a value")
    spans = document.get("spans")
    if not isinstance(spans, dict):
        raise ObsError("snapshot missing spans section")
    for section in _SPAN_SECTIONS:
        if section not in spans:
            raise ObsError(f"spans.{section} missing")
    for aggregate in spans["aggregates"]:
        missing = {"name", "count", "total_s"} - set(aggregate)
        if missing:
            raise ObsError(f"span aggregate missing {sorted(missing)}")
