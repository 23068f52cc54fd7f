"""Smoke test of the benchmark itself (``python -m pytest bench/tests``).

Not part of tier-1 (``testpaths`` is ``tests``): it runs the whole harness
at ``--smoke`` sizes, which takes about a minute.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=REPO,
        capture_output=True, text=True, timeout=300, check=False,
    )


def run_all(path: str, seed: int) -> dict:
    done = bench("run", "--smoke", "--trace", "--seed", str(seed), "--output", path)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The full smoke invocation (untraced + traced), twice, same seed."""
    folder = tmp_path_factory.mktemp("bench")
    started = time.perf_counter()
    first = run_all(str(folder / "a.json"), seed=5)
    elapsed = time.perf_counter() - started
    second = run_all(str(folder / "b.json"), seed=5)
    return first, second, elapsed, folder


def test_smoke_invocation_is_quick_and_correct(two_runs):
    first, _, elapsed, _ = two_runs
    assert elapsed < 30.0, f"--smoke took {elapsed:.1f} s"
    assert first["claim"] is None
    for name, entry in first["workloads"].items():
        assert entry["correct"], name
        assert entry["failed_share"] == 0, name


def test_every_declared_name_is_reported(two_runs, manifest):
    first = two_runs[0]
    assert [w["name"] for w in manifest["workloads"]] == list(first["workloads"])
    for entry in first["workloads"].values():
        for section, declared in (("end_to_end", manifest["end_to_end"]),
                                  ("per_layer", manifest["per_layer"])):
            reported = entry[section]
            assert set(reported) == {metric["name"] for metric in declared}
            for metric in declared:
                assert NAME.match(metric["name"]), metric["name"]
                assert reported[metric["name"]]["unit"] == metric["unit"]
        for metric in manifest["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0
    for workload in manifest["workloads"]:
        assert NAME.match(workload["name"])


def test_manifest_matches_the_catalogue(manifest):
    from bench.catalogue import END_TO_END, PER_LAYER, WORKLOADS

    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == WORKLOADS
    assert len(PER_LAYER) <= 128 and manifest["paths"] == ["bench"]


def test_same_seed_gives_identical_exact_counts(two_runs):
    from bench.catalogue import EXACT_LAYERS

    first, second, _, _ = two_runs
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        assert entry["runs"][0]["attempted"] == other["runs"][0]["attempted"]
        for layer in EXACT_LAYERS:
            assert entry["per_layer"][layer]["value"] == \
                other["per_layer"][layer]["value"], (name, layer)


def test_a_different_seed_changes_the_inputs():
    from bench.__main__ import _workloads

    classes = _workloads()
    for name, attribute in (("sparql_small_burst", "pool"),
                            ("sparql_large_read", "triples"),
                            ("cube_pipeline", "polygons")):
        one, two, again = (classes[name](seed, smoke=True) for seed in (1, 2, 1))
        for workload in (one, two, again):
            workload.generate()
        assert getattr(one, attribute) == getattr(again, attribute), name
        assert getattr(one, attribute) != getattr(two, attribute), name
    one, two = (classes["hopsfs_meta_wal"](seed, smoke=True) for seed in (1, 2))
    state = one.build(None)
    assert one.prepare_round(state, 0) != two.prepare_round(state, 0)


@pytest.mark.parametrize(
    "workload", ["sparql_large_read", "sparql_write_read", "cube_pipeline",
                 "hopsfs_meta_wal"])
def test_a_corrupted_oracle_fails_the_run(workload):
    done = bench("run", "--workload", workload, "--smoke", "--corrupt-oracle")
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["failed"] > 0 and line["correct"] is False
    assert line["failed"] / line["attempted"] > 0  # failed_share


def test_check_accepts_a_repeat_and_refuses_a_regression(two_runs):
    first, _, _, folder = two_runs
    # Smoke timings are too short to compare, so the candidate is the
    # baseline itself, then a copy with one metric made half again slower.
    same = bench("check", str(folder / "a.json"), str(folder / "a.json"))
    assert same.returncode == 0, same.stdout
    assert " regressed" not in same.stdout and "unresolved" not in same.stdout
    slower = copy.deepcopy(first)
    metric = slower["workloads"]["sparql_dist"]["end_to_end"]["latency_p50_ms"]
    metric["value"] *= 1.5
    metric["values"] = [value * 1.5 for value in metric["values"]]
    with open(folder / "slower.json", "w", encoding="utf-8") as handle:
        json.dump(slower, handle)
    worse = bench("check", str(folder / "a.json"), str(folder / "slower.json"))
    assert worse.returncode != 0
    assert "regressed" in worse.stdout


def test_percentile_guard_and_quartiles():
    from bench import stats

    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert stats.percentile(list(range(101)), 95.0) == 95.0
    with pytest.raises(ValueError):
        stats.percentile(list(range(100)), 95.0, min_beyond=20)
    assert stats.spread([10.0]) == 0.0
    assert stats.ratio(1.0, 0.0) == 0.0
    assert "x (" in stats.ratio_text(5.4, 5.0, "ms")
