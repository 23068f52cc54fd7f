"""``python -m bench check A.json B.json``: is B a regression of A?

One row per (workload, end-to-end metric): ``ok``, ``regressed`` (B's median
is worse than A's by more than the metric's bound) or ``unresolved`` (the
run-to-run spread of either side is wider than the bound, unless every run
of B reads better than every run of A). Count metrics marked exact in the
catalogue must be equal. Exit status is non-zero on any ``regressed`` row,
unequal exact count, or ``failed_share > 0``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from bench import stats
from bench.catalogue import END_TO_END, EXACT_LAYERS


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != "bench-result-v1":
        raise ValueError(f"{path}: not a bench result file")
    return document


def verdict(metric, base: List[float], new: List[float]) -> str:
    """Classify one metric from the two sides' run values."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base_median, new_median = stats.median(base), stats.median(new)
    worse_by = sign * (new_median - base_median) / base_median if base_median else 0.0
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(stats.spread(base), stats.spread(new)) > metric.bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by > metric.bound else "ok"


def check_files(baseline_path: str, candidate_path: str) -> int:
    baseline, candidate = _load(baseline_path), _load(candidate_path)
    bad = False
    print(f"{'workload':<20s} {'metric':<18s} {'baseline':>12s} {'candidate':>12s} "
          f"{'change':>24s} {'bound':>6s}  verdict")
    for name, base_entry in baseline["workloads"].items():
        new_entry = candidate["workloads"].get(name)
        if new_entry is None:
            print(f"{name:<20s} missing from candidate")
            bad = True
            continue
        for metric in END_TO_END:
            base = base_entry["end_to_end"].get(metric.name)
            new = new_entry["end_to_end"].get(metric.name)
            if base is None or new is None:
                continue
            outcome = verdict(metric, base["values"], new["values"])
            bad = bad or outcome == "regressed"
            print(f"{name:<20s} {metric.name:<18s} {base['value']:>12.5g} "
                  f"{new['value']:>12.5g} "
                  f"{stats.ratio_text(new['value'], base['value']):>24s} "
                  f"{metric.bound:>6.2f}  {outcome}")
        for side, entry in (("baseline", base_entry), ("candidate", new_entry)):
            if entry["failed_share"] > 0 or not entry["correct"]:
                print(f"{name:<20s} {side} failed_share={entry['failed_share']:.6f} "
                      f"correct={entry['correct']}  regressed")
                bad = True
        if baseline["seed"] != candidate["seed"]:
            continue  # exact counts are per seed
        for layer in sorted(EXACT_LAYERS):
            base = base_entry["per_layer"].get(layer)
            new = new_entry["per_layer"].get(layer)
            if base is None or new is None or base["value"] == new["value"]:
                continue
            print(f"{name:<20s} {layer} differs: {base['value']!r} != "
                  f"{new['value']!r}  regressed")
            bad = True
    print("check:", "REGRESSED" if bad else "ok")
    return 1 if bad else 0
