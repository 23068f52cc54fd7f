"""Failure-injection tests: datanode loss and task retries."""

import pytest

from repro.errors import ClusterError, FaultError, StorageError
from repro.cluster import ClusterSpec, Scheduler
from repro.faults import FaultInjector, FaultPlan
from repro.hopsfs import BlockManager


class TestDataNodeFailure:
    def make_manager(self):
        manager = BlockManager(node_count=4, block_size=100, replication=2)
        for _ in range(10):
            manager.allocate_file(100)
        return manager

    def test_fail_node_reports_affected(self):
        manager = self.make_manager()
        affected = manager.fail_node(0)
        assert affected == len(manager.nodes[0].blocks) or affected > 0
        assert not manager.nodes[0].alive
        assert manager.nodes[0].used_bytes == 0

    def test_under_replicated_after_failure(self):
        manager = self.make_manager()
        manager.fail_node(1)
        under = manager.under_replicated_blocks()
        assert len(under) > 0
        assert manager.lost_blocks() == []  # replication 2 survives one loss

    def test_re_replication_restores(self):
        manager = self.make_manager()
        manager.fail_node(2)
        created = manager.re_replicate()
        assert created > 0
        assert manager.under_replicated_blocks() == []
        # All replicas live on alive nodes.
        for block_id in range(manager.block_count):
            for owner in manager.block_locations(block_id):
                assert manager.nodes[owner].alive

    def test_new_allocations_avoid_dead_nodes(self):
        manager = self.make_manager()
        manager.fail_node(3)
        block_ids = manager.allocate_file(100)
        for block_id in block_ids:
            assert 3 not in manager.block_locations(block_id)

    def test_double_failure_loses_data(self):
        manager = self.make_manager()
        # Kill two nodes: some blocks had both replicas there.
        manager.fail_node(0)
        manager.fail_node(1)
        lost = manager.lost_blocks()
        assert len(lost) > 0
        # Re-replication skips lost blocks but fixes the rest.
        manager.re_replicate()
        assert set(manager.lost_blocks()) == set(lost)
        under = set(manager.under_replicated_blocks())
        assert under == set(lost)

    def test_failure_then_recovery_cycle(self):
        manager = self.make_manager()
        manager.fail_node(0)
        manager.re_replicate()
        # Survivors now hold everything; kill another node and recover again.
        manager.fail_node(1)
        manager.re_replicate()
        assert manager.under_replicated_blocks() == []
        assert manager.lost_blocks() == []

    def test_validation(self):
        manager = self.make_manager()
        with pytest.raises(StorageError):
            manager.fail_node(99)
        manager.fail_node(0)
        with pytest.raises(StorageError):
            manager.fail_node(0)

    def test_re_replicate_capacity_exhausted(self):
        # 3 nodes x 200 B, three 100 B blocks at replication 2 = every byte
        # used; killing a node leaves under-replicated blocks with no
        # live capacity to copy to. The sweep must not raise: unplaceable
        # blocks are skipped and reported so the rest still get repaired.
        manager = BlockManager(
            node_count=3, node_capacity_bytes=200, block_size=100, replication=2
        )
        for _ in range(3):
            manager.allocate_file(100)
        manager.fail_node(0)
        under = manager.under_replicated_blocks()
        assert under
        assert not manager.lost_blocks()
        created = manager.re_replicate()  # nowhere to put the copies
        assert created == 0
        assert sorted(manager.unplaceable_blocks) == sorted(under)

    def test_re_replicate_skips_unplaceable_and_repairs_rest(self):
        # Regression for the sweep-aborting bug: one oversized block that
        # cannot be re-placed used to raise out of re_replicate() and leave
        # every later block under-replicated. Node capacities are sized so
        # the big block's lost replica fits nowhere, while the small blocks'
        # do.
        manager = BlockManager(
            node_count=4, node_capacity_bytes=1000, block_size=400,
            replication=2,
        )
        big = manager.allocate_file(400)[0]
        smalls = [manager.allocate_file(50)[0] for _ in range(4)]
        # Fill the nodes NOT holding the big block so its copy can't land.
        big_owners = set(manager.block_locations(big))
        for node in manager.nodes:
            if node.node_id not in big_owners:
                node.used_bytes = node.capacity_bytes - 100
        victim = next(iter(big_owners))
        manager.fail_node(victim)
        assert big in manager.under_replicated_blocks()
        created = manager.re_replicate()
        # The big block is reported, not raised, and the small blocks the
        # victim also held are all back at full replication.
        assert manager.unplaceable_blocks == [big]
        assert created > 0
        remaining = set(manager.under_replicated_blocks())
        assert remaining == {big}
        for block_id in smalls:
            assert len(manager.block_locations(block_id)) == 2


def failing(rate, seed):
    """An injector failing each task attempt with probability *rate*."""
    return FaultInjector(FaultPlan(seed=seed, task_failure_rate=rate))


class TestTaskRetries:
    def spec(self):
        return ClusterSpec(node_count=2, cpu_slots_per_node=1)

    def test_no_failures_by_default(self):
        scheduler = Scheduler(self.spec())
        scheduler.submit_all([scheduler.make_task(1.0) for _ in range(4)])
        metrics = scheduler.run()
        assert metrics.task_failures == 0
        assert metrics.tasks_completed == 4

    def test_failed_tasks_retry_and_complete(self):
        scheduler = Scheduler(
            self.spec(), injector=failing(0.3, seed=1), max_retries=8
        )
        scheduler.submit_all([scheduler.make_task(1.0) for _ in range(20)])
        metrics = scheduler.run()
        assert metrics.task_failures > 0
        assert metrics.tasks_completed == 20
        assert metrics.tasks_abandoned == 0

    def test_failures_extend_makespan(self):
        def makespan(rate):
            scheduler = Scheduler(self.spec(), injector=failing(rate, seed=2))
            scheduler.submit_all([scheduler.make_task(1.0) for _ in range(20)])
            return scheduler.run().makespan_s

        assert makespan(0.4) > makespan(0.0)

    def test_retries_exhausted_abandons(self):
        # Failure rate near 1 with 1 retry: most tasks abandoned.
        scheduler = Scheduler(
            self.spec(), injector=failing(0.95, seed=3), max_retries=1
        )
        scheduler.submit_all([scheduler.make_task(0.5) for _ in range(10)])
        metrics = scheduler.run()
        assert metrics.tasks_abandoned > 0
        assert metrics.tasks_completed + metrics.tasks_abandoned == 10

    def test_on_complete_not_called_for_failures(self):
        completions = []
        scheduler = Scheduler(
            self.spec(), injector=failing(0.95, seed=4), max_retries=0
        )
        scheduler.submit_all(
            [
                scheduler.make_task(0.5, on_complete=lambda t: completions.append(t.task_id))
                for _ in range(10)
            ]
        )
        metrics = scheduler.run()
        assert len(completions) == metrics.tasks_completed

    def test_attempt_counter(self):
        scheduler = Scheduler(self.spec(), injector=failing(0.5, seed=5))
        task = scheduler.make_task(1.0)
        scheduler.submit(task)
        scheduler.run()
        assert task.attempts >= 0
        assert task.finished_at is not None  # eventually succeeded

    def test_validation(self):
        with pytest.raises(FaultError):
            failing(1.0, seed=0)
        with pytest.raises(ClusterError):
            Scheduler(self.spec(), max_retries=-1)
