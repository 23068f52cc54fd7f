"""End-to-end checksums: detection, failover, scrubbing, silent faults."""

import pytest

from repro.durability import BlockChecksums, Scrubber
from repro.errors import BlockCorruption, StorageError
from repro.faults import BitFlip, FaultInjector, FaultPlan, StaleReplica
from repro.hopsfs import BlockManager


def manager_with(verify=True, node_count=4, replication=3):
    checksums = BlockChecksums(verify=verify)
    manager = BlockManager(
        node_count=node_count, block_size=100, replication=replication,
        checksums=checksums,
    )
    manager.allocate_file(100)  # block 0
    return manager, checksums


class TestVerifiedReads:
    def test_bit_flip_on_preferred_fails_over(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        assert checksums.corrupt_replica(0, owners[0], "bit_flip")
        served = manager.read_block(0, preferred=owners[0])
        assert served in owners[1:]

    def test_all_replicas_corrupt_raises(self):
        manager, checksums = manager_with()
        for owner in manager.block_locations(0):
            checksums.corrupt_replica(0, owner, "bit_flip")
        with pytest.raises(BlockCorruption) as excinfo:
            manager.read_block(0)
        assert excinfo.value.block_id == 0

    def test_verify_off_serves_the_corrupt_replica(self):
        # verify=False must not change which replica a read picks — it only
        # counts what a checksum-less deployment would have served.
        manager, checksums = manager_with(verify=False)
        plain = BlockManager(node_count=4, block_size=100, replication=3)
        plain.allocate_file(100)
        for owner in manager.block_locations(0):
            checksums.corrupt_replica(0, owner, "bit_flip")
        for _ in range(6):
            assert manager.read_block(0) == plain.read_block(0)

    def test_stale_replica_needs_a_second_generation(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        assert not checksums.corrupt_replica(0, owners[0], "stale")
        assert manager.update_block(0) == 1
        assert checksums.corrupt_replica(0, owners[0], "stale")
        assert not checksums.replica_intact(0, owners[0])
        served = manager.read_block(0, preferred=owners[0])
        assert served in owners[1:]

    def test_re_replicated_copy_is_intact(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        manager.fail_node(owners[0])
        manager.re_replicate()
        for owner in manager.block_locations(0):
            assert checksums.replica_intact(0, owner)
        assert checksums.tracked_replicas == 3

    def test_free_blocks_clears_the_ledger(self):
        manager, checksums = manager_with()
        manager.free_blocks([0])
        assert checksums.tracked_replicas == 0


class TestScrubber:
    def test_sweep_repairs_from_intact_sibling(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        checksums.corrupt_replica(0, owners[1], "bit_flip")
        report = Scrubber(manager).sweep()
        assert report.corrupt_found == 1
        assert report.repaired == 1
        assert report.ok
        assert checksums.replica_intact(0, owners[1])
        assert manager.read_block(0, preferred=owners[1]) == owners[1]

    def test_sweep_reports_unrepairable_blocks(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        for owner in owners:
            checksums.corrupt_replica(0, owner, "bit_flip")
        report = Scrubber(manager).sweep()
        assert not report.ok
        assert report.repaired == 0
        assert sorted(report.unrepairable) == sorted(
            (0, owner) for owner in owners
        )

    def test_sweep_is_deterministic(self):
        def run():
            manager, checksums = manager_with()
            owners = manager.block_locations(0)
            checksums.corrupt_replica(0, owners[2], "bit_flip")
            return Scrubber(manager).sweep()

        first, second = run(), run()
        assert first.replicas_scanned == second.replicas_scanned
        assert first.unrepairable == second.unrepairable

    def test_scrubber_requires_a_ledger(self):
        plain = BlockManager(node_count=4)
        with pytest.raises(StorageError):
            Scrubber(plain)


class TestInjectorDrivenFaults:
    def test_planned_bit_flips_apply(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        plan = FaultPlan(bit_flips=(BitFlip(node_id=owners[0], block_id=0),))
        assert manager.inject_silent_faults(FaultInjector(plan)) == 1
        assert not checksums.replica_intact(0, owners[0])

    def test_planned_stale_replicas_need_generations(self):
        manager, checksums = manager_with()
        owners = manager.block_locations(0)
        plan = FaultPlan(
            stale_replicas=(StaleReplica(node_id=owners[0], block_id=0),)
        )
        assert manager.inject_silent_faults(FaultInjector(plan)) == 0
        manager.update_block(0)
        assert manager.inject_silent_faults(FaultInjector(plan)) == 1

    def test_faults_without_ledger_are_noops(self):
        plain = BlockManager(node_count=4, block_size=100)
        plain.allocate_file(100)
        plan = FaultPlan(bit_flips=(BitFlip(node_id=0, block_id=0),))
        assert plain.inject_silent_faults(FaultInjector(plan)) == 0

    def test_chaos_plan_draws_silent_faults_deterministically(self):
        kwargs = dict(
            seed=42, shard_count=4, datanode_count=4, block_count=6,
            bit_flip_prob=0.5, stale_replica_prob=0.3,
        )
        first = FaultPlan.chaos(**kwargs)
        second = FaultPlan.chaos(**kwargs)
        assert first.bit_flips == second.bit_flips
        assert first.stale_replicas == second.stale_replicas
        assert first.bit_flips  # at these probabilities something must draw

    def test_chaos_silent_faults_do_not_shift_legacy_draws(self):
        # New draw kinds must extend the stream, not reorder it: the same
        # seed with silent faults off and on yields identical legacy plans.
        legacy = FaultPlan.chaos(seed=7, shard_count=4, datanode_count=4)
        extended = FaultPlan.chaos(
            seed=7, shard_count=4, datanode_count=4,
            block_count=5, bit_flip_prob=0.9, stale_replica_prob=0.9,
        )
        assert legacy.shard_outages == extended.shard_outages
        assert legacy.datanode_crashes == extended.datanode_crashes
