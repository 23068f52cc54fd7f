"""``python -m bench``: run the benchmark or compare two result files.

``run --workload NAME`` measures one workload in this process and prints the
builder contract's JSON object as the last line of standard output.
``run`` without a workload runs all six, each in a fresh subprocess (peak
RSS is per workload), prints every metric by name with its unit and writes
``bench/results/result-<seed>.json``. ``check A.json B.json`` compares two
such files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 11
DEFAULT_SECONDS = 6


def _program_on_path() -> None:
    """Make ``import repro`` work from a bare checkout (``src`` layout)."""
    source = os.path.join(REPO, "src")
    if source not in sys.path:
        sys.path.insert(0, source)


def _workloads() -> Dict[str, type]:
    _program_on_path()
    from bench.cube_workload import CubePipeline
    from bench.hopsfs_workload import HopsfsMetaWal
    from bench.sparql_workloads import Dist, LargeRead, SmallBurst, WriteRead

    classes = (SmallBurst, LargeRead, WriteRead, Dist, CubePipeline, HopsfsMetaWal)
    return {cls.name: cls for cls in classes}


def _print_report(report: Dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{'traced' if report['trace'] else 'untraced'}) ==")
    for name, metric in report["metrics"].items():
        print(f"  {name:<44s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']} samples={report['samples']}")
    for violation in report["violations"]:
        print(f"  VIOLATION: {violation}")


def run_one(args) -> int:
    """One workload in this process; the contract's single-run form."""
    from bench.harness import contract_line, run_workload

    workload = _workloads()[args.workload](
        args.seed, smoke=args.smoke, corrupt_oracle=args.corrupt_oracle
    )
    report = run_workload(workload, args.seconds, bool(args.trace))
    _print_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    print(json.dumps(contract_line(report)))
    return 0 if report["correct"] else 1


def _environment() -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "note": "sandbox numbers: 2 cores, OS page cache, no real disk"}


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess, *repeat* times."""
    from bench import stats
    from bench.catalogue import WORKLOADS
    from bench.harness import RESULTS_DIR

    os.makedirs(RESULTS_DIR, exist_ok=True)
    document = {
        "schema": "bench-result-v1", "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "repeat": args.repeat, "claim": None,
        "env": _environment(), "workloads": {},
    }
    failed = False
    modes = [0, 1] if args.trace else [0]
    for name in WORKLOADS:
        entry = {"end_to_end": {}, "per_layer": {}, "runs": []}
        for trace in modes:
            for _ in range(args.repeat if trace == 0 else 1):
                report_path = os.path.join(RESULTS_DIR, f"report-{name}-{trace}.json")
                command = [
                    sys.executable, "-m", "bench", "run", "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--report", report_path,
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, cwd=REPO, capture_output=True,
                                      text=True, check=False)
                if done.returncode != 0 or not os.path.exists(report_path):
                    failed = True
                    print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
                    if not os.path.exists(report_path):
                        continue
                with open(report_path, encoding="utf-8") as handle:
                    report = json.load(handle)
                os.remove(report_path)
                _print_report(report)
                entry["runs"].append({
                    key: report[key] for key in
                    ("trace", "attempted", "failed", "correct", "samples",
                     "violations", "metrics")
                })
                entry["sizes"] = report["sizes"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            runs = [run for run in entry["runs"] if run["trace"] == trace]
            if not runs:
                continue
            for metric in runs[0]["metrics"]:
                values = [run["metrics"][metric]["value"] for run in runs]
                entry[section][metric] = {
                    "value": stats.median(values), "values": values,
                    "unit": runs[0]["metrics"][metric]["unit"],
                }
        attempted = sum(run["attempted"] for run in entry["runs"])
        entry["failed_share"] = (
            sum(run["failed"] for run in entry["runs"]) / attempted if attempted else 1.0
        )
        entry["correct"] = bool(entry["runs"]) and all(
            run["correct"] for run in entry["runs"])
        failed = failed or not entry["correct"]
        document["workloads"][name] = entry
    path = args.output or os.path.join(RESULTS_DIR, f"result-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"result written: {path}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload or all six")
    run.add_argument("--workload", default=None)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     choices=(0, 1), help="per-layer metrics from a traced pass")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, 2 rounds")
    run.add_argument("--repeat", type=int, default=1,
                     help="untraced runs per workload (all-workload form)")
    run.add_argument("--output", default=None, help="result file to write")
    run.add_argument("--report", default=None, help=argparse.SUPPRESS)
    run.add_argument("--corrupt-oracle", action="store_true",
                     help=argparse.SUPPRESS)  # test hook, see bench/tests
    check = commands.add_parser("check", help="compare two result files")
    check.add_argument("baseline")
    check.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.command == "check":
        from bench.check import check_files

        return check_files(args.baseline, args.candidate)
    if args.workload is None:
        return run_all(args)
    if args.workload not in _workloads():
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
