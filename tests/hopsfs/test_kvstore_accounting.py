"""The sim cost model and every `_execute` gate are pinned to golden values.

The partition-indexed layout and the normalise-participants-once change
touched every line between a caller and its shard; none of that may move a
single charge. A fixed op sequence (puts, gets, deletes, scans, single- and
cross-shard transactions) runs under four configurations — bare, with an
outage injector + retry policy, with circuit breakers on top, and with a
charge-driven deadline on top of that — and the accounting (``_busy_ms``,
``op_count``, ``multi_shard_fraction``, retries, attempted ops), the
``hopsfs.ops`` / ``hopsfs.shard_op_ms`` / ``hopsfs.2pc_aborts`` series and
the per-op outcomes must hash to the digests recorded on the commit before
the layout changed (the flat ``{(pk, key): value}`` store).

Integer partition keys hash to themselves, so routing — and the digests —
are the same in every process.
"""

import hashlib
import random

import pytest

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy, ShardOutage
from repro.hopsfs import ShardedKVStore
from repro.obs import Observability
from repro.resilience import CircuitBreakerSet, Deadline

SHARDS = 4
SERIES = ("hopsfs.ops", "hopsfs.shard_op_ms", "hopsfs.2pc_aborts")

#: Recorded by running this module's ``digest`` on the parent commit.
GOLDEN = {
    "bare": "558055dfc7925c6d",
    "faults": "3b4910776c913898",
    "breakers": "2e2bce18f74a6c02",
    "deadline": "7816ee0be9b8a0db",
}


def build(config: str, obs: Observability) -> ShardedKVStore:
    if config == "bare":
        return ShardedKVStore(shard_count=SHARDS, obs=obs)
    plan = FaultPlan(shard_outages=(
        ShardOutage(shard=1, start_op=20, duration_ops=6),
        ShardOutage(shard=2, start_op=60, duration_ops=40),
        ShardOutage(shard=3, start_op=150, duration_ops=None),
    ))
    breakers = None
    if config in ("breakers", "deadline"):
        breakers = CircuitBreakerSet(
            seed=7, failure_threshold=3, window=8, recovery_calls=5
        )
    return ShardedKVStore(
        shard_count=SHARDS,
        obs=obs,
        injector=FaultInjector(plan),
        retry_policy=RetryPolicy(
            max_attempts=4, base_delay_s=0.0004, jitter=0.0
        ),
        breakers=breakers,
    )


def drive(store: ShardedKVStore, with_deadline: bool):
    """220 seeded ops; returns one outcome string per op."""
    rng = random.Random(1313)
    # One budget per 20-op "request": 4 ms covers its clean charges several
    # times over, but backoff waits draw on it too, so under an outage the
    # budget runs out before the request ends.
    deadline = Deadline(0.004) if with_deadline else None
    outcomes = []
    for i in range(220):
        roll = rng.random()
        pk, key = rng.randrange(12), f"k{rng.randrange(5)}"
        try:
            if roll < 0.35:
                result = store.put(pk, key, i, deadline=deadline)
            elif roll < 0.55:
                result = store.get(pk, key, deadline=deadline)
            elif roll < 0.65:
                result = store.delete(pk, key, deadline=deadline)
            elif roll < 0.80:
                result = store.scan(pk, deadline=deadline)
            else:
                spread = rng.sample(range(12), rng.randint(1, 3))
                result = store.transact(
                    writes=[(p, f"t{i % 3}", i) for p in spread],
                    deletes=[(rng.randrange(12), key)],
                    deadline=deadline,
                )
            outcomes.append(repr(result))
        except ReproError as error:
            outcomes.append(f"{type(error).__name__}: {error}")
        if with_deadline and i % 20 == 19:
            deadline = Deadline(0.004)  # the next request's budget
    return outcomes


def digest(config: str) -> str:
    obs = Observability()
    store = build(config, obs)
    outcomes = drive(store, with_deadline=config == "deadline")
    snapshot = obs.metrics.snapshot()
    series = [
        instrument
        for kind in sorted(snapshot)
        for instrument in snapshot[kind]
        if instrument["name"] in SERIES
    ]
    observed = (
        store._busy_ms,
        store.op_count,
        store.multi_shard_fraction,
        store.makespan_ms(),
        store.total_work_ms(),
        store.retries,
        store.retry_wait_ms,
        store._attempted_ops,
        store.storage_entries(),
        sorted(map(repr, (item for shard in range(SHARDS)
                          for item in store.shard_items(shard)))),
        series,
        outcomes,
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()[:16]


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_accounting_matches_the_flat_layout_commit(config):
    assert digest(config) == GOLDEN[config]


def test_scenarios_exercise_every_gate():
    # The goldens only mean something if the sequence really hits the
    # gates: outages (aborts + retries), open breakers, spent deadlines,
    # and both single-shard and 2PC charges.
    obs = Observability()
    store = build("deadline", obs)
    outcomes = drive(store, with_deadline=True)
    for marker in ("ShardUnavailable", "TimeoutExceeded", "RetryExhausted",
                   "circuit breaker"):
        assert any(marker in outcome for outcome in outcomes), marker
    assert store.retries > 0
    assert 0.0 < store.multi_shard_fraction < 1.0
    assert obs.metrics.value("hopsfs.ops", kind="2pc") > 0
    assert obs.metrics.value("hopsfs.ops", kind="single") > 0
