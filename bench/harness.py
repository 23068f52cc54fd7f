"""The workload runner: set-up, timed rounds, oracles, metrics.

One process, one thread, one closed-loop client. A workload is a fixed,
seeded operation stream cut into *rounds* of equal operation count; the
number of rounds is ``--seconds`` times a per-workload constant calibrated
so a round takes about half a second on the seed commit. The work is
therefore identical on every commit (operation counts, not durations, are
fixed) while ``--seconds`` still scales the run.

Wall clock and sim clock are never mixed: everything here is
``time.perf_counter`` or ``time.process_time``; sim-clock values only ever
appear as per-layer metrics whose name ends in ``_sim``.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Dict, List, Optional

from bench import stats
from bench.catalogue import PER_LAYER_NAMES, UNITS
from bench.spans import Recorder

#: Samples that must lie beyond p95 before it is reported (full sizes only).
MIN_BEYOND_P95 = 20

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


class Pause:
    """Excludes bench-side work (oracles, staged replay) from a round.

    The time spent inside ``with state.pause:`` blocks is subtracted from
    the round's wall and CPU time, so checking answers costs the run
    duration but never the reported numbers.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Pause":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += time.process_time() - self._cpu0


class State:
    """What one set-up built, plus the pass's failure bookkeeping."""

    def __init__(self) -> None:
        self.pause = Pause()
        self.failed = 0  #: operations that raised or the oracle rejected
        self.checks = 0  #: answers compared against an oracle
        self.violations: List[str] = []  #: broken end-of-run invariants


class Workload:
    """Base class: subclasses build the program and drive it op by op."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Rounds per ``--seconds`` second (a round is ~0.5 s on the seed commit).
    rounds_per_second = 2.0
    FULL: Dict[str, int] = {}
    SMOKE: Dict[str, int] = {}

    def __init__(self, seed: int, smoke: bool = False, corrupt_oracle: bool = False):
        self.seed = seed
        self.smoke = smoke
        #: Test hook: perturb the first oracle answer so a rejection shows.
        self.corrupt_oracle = corrupt_oracle
        self.size = dict(self.SMOKE if smoke else self.FULL)

    def generate(self) -> None:
        """Build the seeded inputs (the bench's own work, never timed)."""

    def setup(self, rec: Optional[Recorder], obs) -> State:
        """Load the data into the program and warm it (timed as set-up)."""
        raise NotImplementedError

    def prepare_round(self, state: State, index: int):
        """The round's seeded operation list (untimed)."""
        raise NotImplementedError

    def run_round(self, state: State, ops, latencies: List[float]) -> int:
        """Run one round; append latency-op times (ms); return ops attempted."""
        raise NotImplementedError

    def finish(self, state: State, latencies: List[float]) -> int:
        """End-of-pass operations and invariants; returns extra ops attempted."""
        return 0

    def verify(self, state: State) -> None:
        """Post-run oracles: add to ``state.failed`` / ``state.violations``."""

    def layers(self, state: State, rec: Recorder, obs) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (absent names report 0)."""
        return {}

    def sizes(self) -> Dict[str, object]:
        return dict(self.size)


class PassResult:
    def __init__(self) -> None:
        self.rounds: List[Dict[str, float]] = []
        self.latencies: List[float] = []
        self.attempted = 0
        self.wall = 0.0
        self.truncated = False


def timed_pass(workload: Workload, state: State, rounds: int,
               cap_s: float) -> PassResult:
    """Run *rounds* rounds; per-round wall/CPU exclude paused bench work."""
    result = PassResult()
    gc.collect()
    started = time.perf_counter()
    for index in range(rounds):
        ops = workload.prepare_round(state, index)
        pause = state.pause
        paused_wall, paused_cpu = pause.wall, pause.cpu
        count_before = len(result.latencies)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        attempted = workload.run_round(state, ops, result.latencies)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        wall = (wall1 - wall0) - (pause.wall - paused_wall)
        cpu = (cpu1 - cpu0) - (pause.cpu - paused_cpu)
        result.rounds.append({
            "ops": attempted, "wall_s": wall, "cpu_s": cpu,
            "latency_ops": len(result.latencies) - count_before,
        })
        result.attempted += attempted
        result.wall += wall
        if time.perf_counter() - started > cap_s and index + 1 < rounds:
            # Keeps a badly regressed commit inside the driver's time limit;
            # never reached at the calibrated sizes.
            result.truncated = True
            break
    result.attempted += workload.finish(state, result.latencies)
    return result


def end_to_end(result: PassResult, setup_times: List[float],
               smoke: bool) -> Dict[str, float]:
    """The six end-to-end metrics of one untraced run.

    Each timing is taken per round and the run reports the quartile on the
    quiet side: the 25th percentile of a cost, the 75th of a rate. This
    sandbox shares its cores, and a noisy neighbour only ever adds time, so
    the disturbed rounds fall in the discarded tail while a change to the
    program moves every round and so the quartile.
    """
    guard = 0 if smoke else MIN_BEYOND_P95
    stats.percentile(result.latencies, 95.0, guard)  # sample-count guard only
    p50, p95 = [], []
    position = 0
    for entry in result.rounds:
        sample = result.latencies[position:position + int(entry["latency_ops"])]
        position += len(sample)
        p50.append(stats.percentile(sample, 50.0))
        p95.append(stats.percentile(sample, 95.0))
    return {
        "throughput_ops_s": stats.percentile(
            [r["ops"] / r["wall_s"] for r in result.rounds], 75.0
        ),
        "latency_p50_ms": stats.percentile(p50, 25.0),
        "latency_p95_ms": stats.percentile(p95, 25.0),
        "cpu_ms_per_op": stats.percentile(
            [1e3 * r["cpu_s"] / r["ops"] for r in result.rounds], 25.0
        ),
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(workload: Workload, seconds: float, trace: bool) -> Dict:
    """One contract run of one workload; returns the report document."""
    rounds = 2 if workload.smoke else max(2, round(seconds * workload.rounds_per_second))
    cap_s = 4.0 * seconds + 10.0
    workload.generate()
    report: Dict[str, object] = {
        "workload": workload.name, "seed": workload.seed,
        "seconds": seconds, "trace": int(trace), "smoke": workload.smoke,
        "sizes": workload.sizes(),
    }
    if not trace:
        setup_times: List[float] = []
        state: Optional[State] = None
        for _ in range(workload.setup_repeats):
            state = None  # drop the previous build before timing the next
            gc.collect()
            started = time.perf_counter()
            state = workload.setup(None, None)
            setup_times.append(time.perf_counter() - started)
        result = timed_pass(workload, state, rounds, cap_s)
        workload.verify(state)
        metrics = end_to_end(result, setup_times, workload.smoke)
        report["samples"] = {
            "rounds": len(result.rounds),
            "latency_ops": len(result.latencies),
            "setup_runs": len(setup_times),
            "setup_times_s": setup_times,
            "timed_wall_s": result.wall,
            "truncated": result.truncated,
        }
    else:
        # Half-length passes: an untraced reference for the overhead ratio,
        # then the traced pass on a fresh build of the same inputs.
        rounds = max(1, rounds // 2)
        reference = timed_pass(workload, workload.setup(None, None), rounds, cap_s)
        from repro.obs import Observability

        rec, obs = Recorder(), Observability()
        state = workload.setup(rec, obs)
        result = timed_pass(workload, state, rounds, cap_s)
        workload.verify(state)
        measured = workload.layers(state, rec, obs)
        measured["obs.trace_overhead_ratio"] = stats.ratio(result.wall, reference.wall)
        unknown = set(measured) - set(PER_LAYER_NAMES)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        metrics = {name: float(measured.get(name, 0.0)) for name in PER_LAYER_NAMES}
        rec.write(
            os.path.join(RESULTS_DIR, f"trace-{workload.name}.json"),
            meta={"workload": workload.name, "seed": workload.seed,
                  "rounds": rounds, "sizes": workload.sizes()},
        )
        report["samples"] = {
            "rounds": len(result.rounds),
            "latency_ops": len(result.latencies),
            "spans": rec._next_id,
            "traced_wall_s": result.wall,
            "reference_wall_s": reference.wall,
            "truncated": result.truncated,
        }
    report["samples"]["oracle_checks"] = state.checks
    report["attempted"] = result.attempted
    report["failed"] = state.failed
    report["violations"] = state.violations
    report["correct"] = state.failed == 0 and not state.violations
    report["metrics"] = {
        name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
    }
    return report


def contract_line(report: Dict) -> Dict:
    """The last-line JSON object of the builder contract."""
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }

