"""The shared experiment harness (:mod:`repro.soak`) and every E-gate.

A gate is only worth having if a violation turns the command's exit code
non-zero. Each experiment's gate function is fed a report that breaks one
acceptance criterion and must raise its typed error; ``run_cli`` must turn
that error — or a snapshot that lacks a required metric — into exit code 1.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster.simclock import Simulation
from repro.datacube import bench as datacube_bench
from repro.errors import (
    ClusterError,
    DatacubeError,
    FaultError,
    ObsError,
    ServingError,
)
from repro.obs import Observability, read_snapshot, write_bench_snapshot
from repro.soaks import resilience as resilience_soak
from repro.soaks import serving as serving_soak
from repro.soak import Gate, ServerPool, percentile, run_cli, stream_seed
from repro.soaks import dist as dist_soak
from repro.soaks import governor as governor_soak


class TestStatistics:
    def test_percentile_is_nearest_rank(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 0.99) == 5.0
        assert percentile(samples, 1.0) == 5.0
        assert percentile([], 0.99) == 0.0

    def test_stream_seed_is_the_breaker_domain_recipe(self):
        # Pinned: a different domain or recipe would move every soak number.
        assert stream_seed(21, "workload-arrivals") == 1956784036477379923
        assert stream_seed(21, "a") != stream_seed(21, "b")



class TestGate:
    def test_holding_criteria_raise_nothing(self):
        with Gate(ServingError) as check:
            check("jain", 0.95, ">=", 0.9)
            check.that(True, "never shown")
            check.drained({"queued": 0, "ticket_leak": 0})

    def test_every_violation_is_named_with_its_value(self):
        with pytest.raises(FaultError) as raised:
            with Gate(FaultError) as check:
                check("jain", 0.4, ">=", 0.9)
                check("p99 (s)", 0.25, "<", 2.0)
                check.that(False, "the adversary never arrived")
                check.drained({"queued": 0, "ticket_leak": 2})
        assert str(raised.value) == (
            "jain: 0.4 is not >= 0.9; the adversary never arrived; "
            "soak did not drain: ticket_leak=2"
        )

    def test_an_error_inside_the_block_is_not_masked(self):
        with pytest.raises(KeyError):
            with Gate(FaultError) as check:
                check("jain", 0.4, ">=", 0.9)
                raise KeyError("report lacks a field")


class TestServerPool:
    def test_jobs_run_in_take_order_on_bounded_workers(self):
        sim = Simulation()
        queue = [("a", 3.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)]
        finished = []
        peak = []

        def finish(job, tag):
            finished.append((job[0], tag, sim.now))

        pool = ServerPool(
            sim, 2,
            take=lambda: queue.pop(0) if queue else None,
            start=lambda job: (job[1], job[0].upper()),
            finish=finish,
        )
        pool.pump()
        peak.append(pool.busy)
        report = SimpleNamespace(residual={})
        pool.run([], None, report)
        # Two workers: a (3s) and b (1s) start at 0; c takes b's worker at
        # 1, d at 2; a finishes last. A freed worker is reused at once.
        assert finished == [
            ("b", "B", 1.0), ("c", "C", 2.0), ("a", "A", 3.0), ("d", "D", 3.0),
        ]
        assert peak == [2]
        assert vars(report) == {
            "residual": {"busy_servers": 0}, "duration_s": 3.0,
            "events_processed": 4,
        }

    def test_run_plays_arrivals_at_their_times(self):
        sim = Simulation()
        queue, seen = [], []
        pool = ServerPool(
            sim, 1,
            take=lambda: queue.pop(0) if queue else None,
            start=lambda job: (0.5,),
            finish=lambda job: seen.append((job, sim.now)),
        )

        def arrive(name, weight):
            queue.append(name * weight)
            pool.pump()

        report = SimpleNamespace(residual={})
        pool.run([(1.0, "a", 1), (1.2, "b", 2)], arrive, report)
        assert seen == [("a", 1.5), ("bb", 2.0)]
        assert report.duration_s == 2.0 and report.events_processed == 4


def ok_scenario(smoke, seed, size):
    obs = Observability(clock=lambda: 0.0)
    obs.metrics.counter("demo.runs").inc()
    summary = {"smoke": smoke, "seed": seed, "size": size}
    return obs, [("demo", summary)], dict(summary)


class TestRunCli:
    @pytest.fixture(autouse=True)
    def obs_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        self.path = str(tmp_path / "BENCH_E99.json")

    def cli(self, scenario, argv, **kwargs):
        return run_cli("E99", "demo", scenario, seed=7, argv=argv, **kwargs)

    def test_writes_a_validated_snapshot_and_exits_zero(self, capsys):
        code = self.cli(ok_scenario, ["--smoke"], require=("demo.runs",),
                        size=("--requests", 10, 100))
        assert code == 0
        assert read_snapshot(self.path)["meta"] == {
            "smoke": True, "seed": 7, "size": 10,
        }
        assert "[demo] smoke=True seed=7 size=10" in capsys.readouterr().out

    def test_size_defaults_follow_smoke_and_the_flag_wins(self):
        self.cli(ok_scenario, [], size=("--queries", 10, 100))
        assert read_snapshot(self.path)["meta"]["size"] == 100
        self.cli(ok_scenario, ["--smoke", "--queries", "3", "--seed", "9"],
                 size=("--queries", 10, 100))
        assert read_snapshot(self.path)["meta"] == {
            "smoke": True, "seed": 9, "size": 3,
        }

    def test_gate_violation_is_exit_code_one(self, capsys):
        def violated(smoke, seed, size):
            raise ServingError("protected Jain index 0.4 below 0.9")

        assert self.cli(violated, ["--smoke"]) == 1
        assert "FAILED E99: protected Jain index" in capsys.readouterr().out

    def test_missing_required_metric_is_exit_code_one(self, capsys):
        code = self.cli(ok_scenario, [], require=("demo.runs", "demo.gone"))
        assert code == 1
        assert "demo.gone" in capsys.readouterr().out

    def test_write_bench_snapshot_checks_every_metric_kind(self):
        obs = Observability(clock=lambda: 0.0)
        obs.metrics.counter("c").inc()
        obs.metrics.gauge("g").set(1.0)
        obs.metrics.histogram("h").observe(1.0)
        write_bench_snapshot("E99", obs, {}, require=("c", "g", "h"))
        with pytest.raises(ObsError, match=r"\['x'\]"):
            write_bench_snapshot("E99", obs, {}, require=("c", "x"))


# ----------------------------------------------------------------------
# Each experiment's gate, fed one violating report
# ----------------------------------------------------------------------

class TestE18Gate:
    def reports(self):
        bare = resilience_soak.SoakReport(
            protected=False, ok=10, duration_s=10.0, latencies_s=[5.0]
        )
        guarded = resilience_soak.SoakReport(
            protected=True, ok=50, duration_s=10.0, latencies_s=[0.4],
            shed=3, breaker_opens=1,
        )
        return bare, guarded

    def test_passing_pair(self):
        resilience_soak.verify_comparison(*self.reports())

    @pytest.mark.parametrize("change, message", [
        ({"ok": 5}, "goodput vs unprotected .rps.: 0.5 is not > 1"),
        ({"latencies_s": [9.0]}, "p99"),
        ({"shed": 0}, "requests shed: 0 is not > 0"),
        ({"breaker_opens": 0}, "breaker opens: 0 is not > 0"),
    ])
    def test_violation_raises(self, change, message):
        bare, guarded = self.reports()
        guarded = dataclasses.replace(guarded, **change)
        with pytest.raises(FaultError, match=message):
            resilience_soak.verify_comparison(bare, guarded)


class TestE21Gate:
    def reports(self, guarded_ok=(10, 10, 10, 10), bare_ok=(37, 1, 1, 1)):
        def report(protected, oks, executions, latency, **buckets):
            outcomes = {
                f"t{i}": serving_soak.TenantOutcome(f"t{i}", ok=ok, **buckets)
                for i, ok in enumerate(oks)
            }
            return serving_soak.ServingSoakReport(
                protected=protected, per_tenant=outcomes,
                executions=executions, latencies_s=[latency],
            )

        bare = report(False, bare_ok, executions=40, latency=5.0)
        guarded = report(True, guarded_ok, executions=30, latency=0.1,
                         shed=1, quota_rejected=2)
        return bare, guarded

    def test_passing_pair(self):
        serving_soak.verify_comparison(*self.reports())

    def test_unfair_gateway_raises(self):
        bare, guarded = self.reports(guarded_ok=(37, 1, 1, 1))
        with pytest.raises(ServingError, match=r"protected Jain index: 0.2\d+ is not >= 0.9"):
            serving_soak.verify_comparison(bare, guarded)

    def test_harmless_workload_raises(self):
        bare, guarded = self.reports(bare_ok=(10, 10, 10, 10))
        with pytest.raises(ServingError, match="unprotected Jain index: 1 is not < 0.5"):
            serving_soak.verify_comparison(bare, guarded)

    @pytest.mark.parametrize("change, message", [
        ({"latencies_s": [9.0]}, "p99"),
        ({"executions": 40}, "duplicate executions avoided: 0 is not > 0"),
    ])
    def test_violation_raises(self, change, message):
        bare, guarded = self.reports()
        guarded = dataclasses.replace(guarded, **change)
        with pytest.raises(ServingError, match=message):
            serving_soak.verify_comparison(bare, guarded)

    def test_idle_controls_raise(self):
        bare, guarded = self.reports()
        for outcome in guarded.per_tenant.values():
            outcome.shed = 0
        with pytest.raises(ServingError, match="requests shed: 0 is not > 0"):
            serving_soak.verify_comparison(bare, guarded)


class TestE23Gate:
    CONFIG = governor_soak.GovernorSoakConfig()

    def reports(self):
        def report(governed, adversary, runaway_ok, latency, **fields):
            result = governor_soak.GovernorSoakReport(
                governed=governed, adversary=adversary,
                latencies_s={governor_soak.WELL_BEHAVED: [latency]}, **fields,
            )
            result.outcome(governor_soak.RUNAWAY).arrivals = 4 * adversary
            result.outcome(governor_soak.RUNAWAY).ok = runaway_ok
            return result

        cap = self.CONFIG.max_rows
        return (
            report(True, False, 0, 0.010, checkpoints=5),
            report(True, True, 0, 0.015, checkpoints=9, peak_rows_max=cap),
            report(False, True, 4, 0.500, overruns=4, peak_rows_max=4 * cap),
        )

    def test_passing_triple(self):
        governor_soak.verify_comparison(*self.reports(), self.CONFIG)

    @pytest.mark.parametrize("index, change, message", [
        (1, {"overruns": 1}, "governed resident-row overruns: 1 is not == 0"),
        (1, {"peak_rows_max": 10**6}, "peak rows vs cap: 1000000 is not <= 2048"),
        (1, {"checkpoints": 0}, "checkpoint"),
        (1, {"latencies_s": {governor_soak.WELL_BEHAVED: [0.5]}}, "2x"),
        (2, {"overruns": 0}, "ungoverned overruns of the cap: 0 is not > 0"),
        (2, {"latencies_s": {governor_soak.WELL_BEHAVED: [0.001]}},
         "no well-behaved degradation"),
    ])
    def test_violation_raises(self, index, change, message):
        reports = list(self.reports())
        reports[index] = dataclasses.replace(reports[index], **change)
        with pytest.raises(ServingError, match=message):
            governor_soak.verify_comparison(*reports, self.CONFIG)

    def test_surviving_runaway_raises(self):
        reports = self.reports()
        reports[1].outcome(governor_soak.RUNAWAY).ok = 1
        with pytest.raises(ServingError, match="runaways completed under governance: 1 is not == 0"):
            governor_soak.verify_comparison(*reports, self.CONFIG)


class TestE24Gate:
    REPORT = {
        "pruning_ratio": 6.0, "parity_checked": 20, "parity_equal": 20,
        "mean_parity": True, "max_path_writes": 1,
        "tiled_s": 0.001, "whole_s": 0.01,
        "zonal_parity": True, "zonal_chunks_read": 15, "zonal_chunks_total": 48,
        "reopen_parity": True,
    }

    def test_passing_report(self):
        datacube_bench.verify_report(self.REPORT)

    @pytest.mark.parametrize("change, message", [
        ({"pruning_ratio": 1.0}, "pruning ratio"),
        ({"parity_equal": 19}, "oracle parity"),
        ({"parity_equal": 0, "parity_checked": 0}, "selections checked"),
        ({"mean_parity": False}, "tiled mean diverged"),
        ({"max_path_writes": 2}, "most-written chunk path: 2 is not == 1"),
        ({"tiled_s": 0.02}, "whole-cube scan .s.: 0.02 is not < 0.01"),
        ({"zonal_parity": False}, "zonal parity"),
        ({"zonal_chunks_read": 48}, "zonal chunks read < total: 48 is not < 48"),
        ({"reopen_parity": False}, "reopen parity"),
    ])
    def test_violation_raises(self, change, message):
        with pytest.raises(DatacubeError, match=message):
            datacube_bench.verify_report({**self.REPORT, **change})


class TestE25Gate:
    def report(self, **fields):
        defaults = dict(
            config=dist_soak.DistSoakConfig(),
            base_makespan_s=3.0, scaled_makespan_s=1.0, locality_rate=0.9,
            chaos_runs=160, completed=120, typed_aborts=39, stranded_aborts=1,
            fault_counters={"node_crashes": 5, "task_failures": 4,
                            "dist.duplicate_publishes": 3},
        )
        defaults.update(fields)
        return dist_soak.DistSoakReport(**defaults)

    def test_passing_report(self):
        self.report().verify()

    @pytest.mark.parametrize("change, message", [
        ({"wrong_answers": 1}, "wrong_answers .*: 1 is not == 0"),
        ({"unflagged_partials": 1}, "partial results that escaped"),
        ({"ticket_leaks": 1}, "admission tickets"),
        ({"completed": 99, "typed_aborts": 60}, "vs the floor: 99 is not >= 100"),
        ({"completed": 121}, "accounting leak"),
        ({"scaled_makespan_s": 2.5}, "scaling ratio"),
        ({"locality_rate": 0.1}, "locality rate"),
        ({"fault_counters": {"node_crashes": 5, "task_failures": 4}},
         "dist.duplicate_publishes over the campaign: 0 is not > 0"),
        ({"fault_counters": {"task_failures": 4,
                             "dist.duplicate_publishes": 3}},
         "node_crashes over the campaign: 0 is not > 0"),
    ])
    def test_violation_raises(self, change, message):
        with pytest.raises(ClusterError, match=message):
            self.report(**change).verify()


def test_resilience_cli_takes_smoke_and_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    assert resilience_soak.main(["--smoke", "--seed", "18"]) == 0
    meta = read_snapshot(str(tmp_path / "BENCH_E18.json"))["meta"]
    assert meta["goodput_protected_rps"] > meta["goodput_unprotected_rps"]
