"""Scheduler fault tolerance (E17): crashes, speculation, blacklisting.

Also pins the retry-accounting semantics: a task abandoned after N retries
counts exactly N ``task_failures`` and exactly 1 ``tasks_abandoned``.
"""

import pytest

from repro.cluster import ClusterSpec, Scheduler
from repro.faults import FaultInjector, FaultPlan, NodeCrash, Straggler


def spec(**kwargs):
    defaults = dict(node_count=4, cpu_slots_per_node=1)
    defaults.update(kwargs)
    return ClusterSpec(**defaults)


def run_tasks(scheduler, count=8, work_s=2.0):
    scheduler.submit_all([scheduler.make_task(work_s) for _ in range(count)])
    return scheduler.run()


class AlwaysFails:
    """Injector stub: every attempt of every task fails.

    ``FaultPlan`` rejects ``task_failure_rate=1.0`` (the scheduler could
    never finish), so the regression test drives the verdict directly.
    """

    def node_crash_time(self, node_id):
        return None

    def straggler_factor(self, node_id):
        return 1.0

    def task_fails(self, task_id):
        return True


class TestNodeCrash:
    def test_crash_recovery_requeues_and_completes(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node_id=0, at_s=1.0),))
        scheduler = Scheduler(spec(), injector=FaultInjector(plan))
        metrics = run_tasks(scheduler, count=8, work_s=2.0)
        assert metrics.node_crashes == 1
        assert metrics.tasks_completed == 8
        assert metrics.tasks_lost == 0
        # The re-run attempt makes the run longer than the fault-free one.
        baseline = run_tasks(Scheduler(spec()), count=8, work_s=2.0)
        assert metrics.makespan_s > baseline.makespan_s

    def test_without_recovery_work_is_lost(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node_id=0, at_s=1.0),))
        scheduler = Scheduler(
            spec(), injector=FaultInjector(plan), crash_recovery=False
        )
        metrics = run_tasks(scheduler, count=8, work_s=2.0)
        assert metrics.tasks_lost > 0
        assert metrics.tasks_completed + metrics.tasks_lost == 8

    def test_crashed_node_receives_no_new_work(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node_id=2, at_s=0.5),))
        scheduler = Scheduler(spec(), injector=FaultInjector(plan))
        tasks = [scheduler.make_task(1.0) for _ in range(12)]
        scheduler.submit_all(tasks)
        scheduler.run()
        late_runs = [t for t in tasks if t.started_at > 0.5 and t.ran_on == 2]
        assert late_runs == []

    def test_all_nodes_crashing_leaves_queue(self):
        plan = FaultPlan(
            node_crashes=tuple(NodeCrash(n, at_s=0.5) for n in range(4))
        )
        scheduler = Scheduler(spec(), injector=FaultInjector(plan))
        scheduler.submit_all([scheduler.make_task(2.0) for _ in range(4)])
        with pytest.raises(Exception):
            scheduler.run()  # nowhere left to run the re-queued tasks


class TestSpeculation:
    def test_straggler_triggers_backup_copy(self):
        plan = FaultPlan(stragglers=(Straggler(node_id=0, factor=8.0),))
        scheduler = Scheduler(
            spec(), injector=FaultInjector(plan), speculation=True
        )
        metrics = run_tasks(scheduler, count=4, work_s=4.0)
        assert metrics.speculative_launches >= 1
        assert metrics.tasks_completed == 4

        slow = Scheduler(spec(), injector=FaultInjector(plan), speculation=False)
        slow_metrics = run_tasks(slow, count=4, work_s=4.0)
        assert metrics.makespan_s < slow_metrics.makespan_s

    def test_no_speculation_without_stragglers(self):
        scheduler = Scheduler(
            spec(),
            injector=FaultInjector(FaultPlan.none()),
            speculation=True,
        )
        metrics = run_tasks(scheduler)
        assert metrics.speculative_launches == 0

    def test_winner_recorded_once(self):
        plan = FaultPlan(stragglers=(Straggler(node_id=0, factor=8.0),))
        scheduler = Scheduler(
            spec(), injector=FaultInjector(plan), speculation=True
        )
        tasks = [scheduler.make_task(4.0) for _ in range(4)]
        scheduler.submit_all(tasks)
        metrics = scheduler.run()
        assert metrics.tasks_completed == len(tasks)
        for task in tasks:
            assert task.finished_at is not None
            assert task.ran_on != 0 or task.finished_at <= 4.0 * 8.0


class TestBlacklisting:
    def test_flaky_node_is_blacklisted(self):
        # Node 0 is the only straggler AND every task on it fails... easier:
        # drive failures via rate high enough that node 0 accrues them, with
        # blacklisting after 2 failures.
        plan = FaultPlan(seed=3, task_failure_rate=0.4)
        scheduler = Scheduler(
            spec(),
            injector=FaultInjector(plan),
            max_retries=10,
            blacklist_after=2,
        )
        metrics = run_tasks(scheduler, count=20, work_s=1.0)
        assert metrics.tasks_completed == 20
        assert metrics.nodes_blacklisted >= 1

    def test_never_blacklists_last_node(self):
        scheduler = Scheduler(
            ClusterSpec(node_count=1, cpu_slots_per_node=1),
            injector=FaultInjector(FaultPlan(seed=3, task_failure_rate=0.5)),
            max_retries=50,
            blacklist_after=1,
        )
        metrics = run_tasks(scheduler, count=5, work_s=1.0)
        assert metrics.nodes_blacklisted == 0
        assert metrics.tasks_completed == 5


class TestDeterminism:
    def chaos_metrics(self):
        plan = FaultPlan.chaos(
            seed=11,
            node_count=4,
            node_crash_prob=0.25,
            horizon_s=10.0,
            straggler_prob=0.25,
            task_failure_rate=0.2,
        )
        scheduler = Scheduler(
            spec(),
            injector=FaultInjector(plan),
            speculation=True,
            max_retries=10,
        )
        return run_tasks(scheduler, count=16, work_s=1.5)

    def test_same_plan_same_timeline(self):
        assert self.chaos_metrics().as_dict() == self.chaos_metrics().as_dict()

    def test_none_plan_matches_no_injector(self):
        """FaultPlan.none() must be indistinguishable from injector=None."""
        with_injector = run_tasks(
            Scheduler(spec(), injector=FaultInjector(FaultPlan.none()))
        )
        without = run_tasks(Scheduler(spec()))
        assert with_injector.as_dict() == without.as_dict()


class TestRetryAccounting:
    """Regression: N retries => N failures + exactly 1 abandonment."""

    @pytest.mark.parametrize("max_retries", [0, 1, 3])
    def test_abandonment_counts(self, max_retries):
        scheduler = Scheduler(
            ClusterSpec(node_count=1, cpu_slots_per_node=1),
            injector=AlwaysFails(),
            max_retries=max_retries,
        )
        task = scheduler.make_task(1.0)
        scheduler.submit(task)
        metrics = scheduler.run()
        assert metrics.tasks_abandoned == 1
        assert metrics.task_failures == max_retries
        assert task.attempts == max_retries + 1
        assert metrics.tasks_completed == 0
        assert task.finished_at is None

    def test_mixed_workload_totals(self):
        # Random injected failures obey the same accounting: every failed
        # attempt is either retried (a failure) or final (an abandonment).
        scheduler = Scheduler(
            spec(),
            injector=FaultInjector(FaultPlan(seed=9, task_failure_rate=0.6)),
            max_retries=2,
        )
        metrics = run_tasks(scheduler, count=30, work_s=0.5)
        assert metrics.tasks_completed + metrics.tasks_abandoned == 30
        assert metrics.tasks_abandoned > 0
        # Each abandoned task contributed exactly max_retries failures plus
        # its abandonment; completed tasks contribute 0..max_retries each.
        assert metrics.task_failures >= metrics.tasks_abandoned * 2
