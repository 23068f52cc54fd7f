"""E20 — durability & data integrity: WAL recovery, checksums, scrubbing.

Paper claim: a petabyte-scale Copernicus platform is only as good as its
storage truth — acknowledged metadata writes must survive power loss at any
instant, and silent replica corruption must never reach an analytics job.
Expected shape: the crash-point sweep recovers all-or-nothing at EVERY WAL
record boundary (zero committed-write loss, zero aborted-visibility, fsck
clean); under a seeded BitFlip plan, verified reads serve zero corrupt
replicas while the unverified baseline provably serves some — and hands the
reader bytes that differ from what was written; the scrubber
repairs every detectably-corrupt replica that still has a healthy sibling;
and checkpoints cut replay work without changing the recovered answer.
"""

import random
import time

from benchmarks.conftest import emit_bench_snapshot, print_series
from repro.durability import BlockChecksums, DurabilityLayer, Scrubber
from repro.durability.harness import run_sweeps
from repro.errors import BlockCorruption
from repro.faults import FaultInjector, FaultPlan
from repro.hopsfs import BlockManager, ShardedKVStore
from repro.obs import Observability

SEED = 20
SWEEP_SEEDS = [20, 21, 22]

#: Shared across the module's tests; the final test snapshots it into
#: BENCH_E20.json together with the headline numbers accumulated here.
OBS = Observability()
RESULTS = {}


# ----------------------------------------------------------------------
# Crash-point sweep
# ----------------------------------------------------------------------

def test_e20_crash_point_sweep(benchmark):
    """Every WAL boundary, clean + torn, three seeds: recovery is exact."""
    outcome = {}

    def sweep():
        start = time.perf_counter()
        outcome["reports"] = run_sweeps(SWEEP_SEEDS, ops=16, obs=OBS)
        outcome["wall_s"] = time.perf_counter() - start
        return outcome

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    reports = outcome["reports"]
    for report in reports:
        # The acceptance bar: zero committed-write loss, zero
        # aborted-visibility, fsck clean — at every boundary.
        report.verify()
    crash_points = sum(r.crash_points for r in reports)
    print_series(
        "E20: crash-point recovery sweep (clean + torn, per seed)",
        [
            {"seed": r.seed, "wal_records": r.wal_records,
             "crash_points": r.crash_points,
             "failures": len(r.failures)}
            for r in reports
        ],
    )
    benchmark.extra_info["crash_points"] = crash_points
    benchmark.extra_info["failures"] = 0
    RESULTS["crash_points"] = crash_points
    RESULTS["crash_failures"] = 0


# ----------------------------------------------------------------------
# Checksum shielding
# ----------------------------------------------------------------------

def corruption_plan(block_count):
    return FaultPlan.chaos(
        seed=SEED, datanode_count=6, block_count=block_count,
        bit_flip_prob=0.12, stale_replica_prob=0.08,
    )


def build_manager(verify, obs=None):
    """16 blocks of seeded bytes; returns (manager, block_id -> bytes written)."""
    manager = BlockManager(
        node_count=6, block_size=1024, replication=3,
        checksums=BlockChecksums(verify=verify, obs=obs),
    )
    rng = random.Random(SEED)
    written = {}
    for _ in range(8):
        payload = rng.randbytes(2048)  # 2 blocks each -> 16 blocks
        for index, block_id in enumerate(manager.allocate_file(payload)):
            written[block_id] = payload[index * 1024:(index + 1) * 1024]
    for block_id in range(0, 16, 2):
        manager.update_block(block_id)  # give StaleReplica a generation gap
    return manager, written


def drive_reads(manager, written):
    """200 reads; returns (corrupt replicas served, reads whose bytes differ
    from what was written)."""
    served_corrupt = wrong_bytes = 0
    checksums = manager.checksums
    for i in range(200):
        block_id = i % manager.block_count
        try:
            node = manager.read_block(block_id)
        except BlockCorruption:
            continue  # refused: every replica rotten — never served garbage
        if not checksums.replica_intact(block_id, node):
            served_corrupt += 1
        if manager.nodes[node].data[block_id] != written[block_id]:
            wrong_bytes += 1
    return served_corrupt, wrong_bytes


def test_e20_checksum_shielding(benchmark):
    """Same BitFlip plan: verification serves 0 corrupt reads, baseline >0."""
    outcome = {}

    def sweep():
        injector = FaultInjector(corruption_plan(block_count=16))
        unverified, written = build_manager(verify=False, obs=OBS)
        flips_off = unverified.inject_silent_faults(injector)
        verified, _ = build_manager(verify=True, obs=OBS)
        flips_on = verified.inject_silent_faults(injector)
        assert flips_off == flips_on > 0  # the plans really did land
        outcome["served_off"], outcome["wrong_off"] = drive_reads(
            unverified, written)
        outcome["served_on"], outcome["wrong_on"] = drive_reads(
            verified, written)
        outcome["faults"] = flips_on
        return outcome

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The E20 headline pair: the identical fault plan is harmless with
    # verification on and demonstrably harmful with it off — the reader
    # gets bytes that differ from what was written.
    assert outcome["served_on"] == 0
    assert outcome["served_off"] > 0
    assert outcome["wrong_on"] == 0
    assert outcome["wrong_off"] > 0
    print_series(
        "E20: 200 reads under a seeded BitFlip/StaleReplica plan",
        [
            {"config": "verify off (baseline)",
             "corrupt_reads_served": outcome["served_off"],
             "wrong_bytes_read": outcome["wrong_off"]},
            {"config": "verify on",
             "corrupt_reads_served": outcome["served_on"],
             "wrong_bytes_read": outcome["wrong_on"]},
        ],
    )
    benchmark.extra_info["silent_faults"] = outcome["faults"]
    benchmark.extra_info["served_verify_off"] = outcome["served_off"]
    benchmark.extra_info["served_verify_on"] = outcome["served_on"]
    RESULTS["silent_faults"] = outcome["faults"]
    RESULTS["corrupt_reads_served_verify_off"] = outcome["served_off"]
    RESULTS["corrupt_reads_served_verify_on"] = outcome["served_on"]
    RESULTS["wrong_bytes_read_verify_off"] = outcome["wrong_off"]
    RESULTS["wrong_bytes_read_verify_on"] = outcome["wrong_on"]


# ----------------------------------------------------------------------
# Scrubbing
# ----------------------------------------------------------------------

def test_e20_scrubber_repairs_all_detectable(benchmark):
    """One sweep heals every corrupt replica that has a healthy sibling."""
    outcome = {}

    def sweep():
        injector = FaultInjector(corruption_plan(block_count=16))
        manager, written = build_manager(verify=True, obs=OBS)
        faults = manager.inject_silent_faults(injector)
        scrubber = Scrubber(manager, obs=OBS)
        first = scrubber.sweep()
        second = scrubber.sweep()
        outcome.update(manager=manager, written=written, faults=faults,
                       first=first, second=second)
        return outcome

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    first, second = outcome["first"], outcome["second"]
    # At replication 3 with per-replica fault draws, every corrupt replica
    # retains a healthy sibling — so the sweep must repair ALL of them.
    assert first.corrupt_found == outcome["faults"] > 0
    assert first.repaired == first.corrupt_found
    assert first.ok
    # And the fixed point: a second sweep finds nothing left to do.
    assert second.corrupt_found == 0
    # Post-scrub, every read of every block serves an intact replica.
    manager = outcome["manager"]
    assert drive_reads(manager, outcome["written"]) == (0, 0)
    for block_id in range(manager.block_count):
        manager.read_block(block_id)  # none raises BlockCorruption
    print_series(
        "E20: scrubber sweep over 48 replicas (seeded corruption)",
        [
            {"sweep": 1, "corrupt": first.corrupt_found,
             "repaired": first.repaired,
             "unrepairable": len(first.unrepairable)},
            {"sweep": 2, "corrupt": second.corrupt_found,
             "repaired": second.repaired,
             "unrepairable": len(second.unrepairable)},
        ],
    )
    benchmark.extra_info["repaired"] = first.repaired
    RESULTS["scrub_corrupt_found"] = first.corrupt_found
    RESULTS["scrub_repaired"] = first.repaired
    RESULTS["scrub_unrepairable"] = len(first.unrepairable)


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------

def test_e20_checkpoints_cut_replay_work(benchmark):
    """Snapshot + suffix replay beats full replay without changing answers."""
    outcome = {}

    def run(checkpointed):
        store = ShardedKVStore(
            shard_count=4, durability=DurabilityLayer(obs=OBS)
        )
        for i in range(300):
            store.put(i % 16, f"k{i % 8}", i)
            if checkpointed and i == 249:
                store.checkpoint(truncate=True)
        state = {
            (pk, key): value
            for shard in range(store.shard_count)
            for pk, key, value in store.shard_items(shard)
        }
        store.crash()
        report = store.recover()
        recovered = {
            (pk, key): value
            for shard in range(store.shard_count)
            for pk, key, value in store.shard_items(shard)
        }
        assert recovered == state
        return report

    def sweep():
        outcome["full"] = run(checkpointed=False)
        outcome["snap"] = run(checkpointed=True)
        return outcome

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    full, snap = outcome["full"], outcome["snap"]
    assert snap.snapshots_used == 4
    assert snap.records_replayed < full.records_replayed
    print_series(
        "E20: recovery work, 300-op workload",
        [
            {"strategy": "full replay",
             "records_replayed": full.records_replayed, "snapshots": 0},
            {"strategy": "checkpoint@250 + suffix",
             "records_replayed": snap.records_replayed,
             "snapshots": snap.snapshots_used},
        ],
    )
    benchmark.extra_info["full_replay_records"] = full.records_replayed
    benchmark.extra_info["suffix_replay_records"] = snap.records_replayed
    RESULTS["full_replay_records"] = full.records_replayed
    RESULTS["suffix_replay_records"] = snap.records_replayed


# ----------------------------------------------------------------------
# Snapshot emission (runs last: file name order == definition order here)
# ----------------------------------------------------------------------

def test_e20_emit_snapshot(benchmark):
    """Bundle the run's durability counters + headlines into BENCH_E20.json."""

    def sweep():
        return RESULTS

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The headline acceptance numbers ride in the snapshot meta; a snapshot
    # is only written when every test above ran and they all hold.
    assert RESULTS["crash_failures"] == 0
    assert RESULTS["corrupt_reads_served_verify_on"] == 0
    assert RESULTS["corrupt_reads_served_verify_off"] > 0
    assert RESULTS["wrong_bytes_read_verify_on"] == 0
    assert RESULTS["wrong_bytes_read_verify_off"] > 0
    assert RESULTS["scrub_repaired"] == RESULTS["scrub_corrupt_found"] > 0
    assert RESULTS["suffix_replay_records"] < RESULTS["full_replay_records"]
    emit_bench_snapshot(
        "E20", OBS, meta=dict(RESULTS),
        require=("durability.wal_appends", "durability.recoveries",
                 "durability.corrupt_reads_detected",
                 "durability.scrub_repairs"),
    )
