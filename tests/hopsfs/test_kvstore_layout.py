"""The partition-indexed shard layout against a flat model, and its cost.

The store keeps each shard as ``{partition_key: {key: value}}``; the model
is the flat ``{(partition_key, key): value}`` dictionary the store used to
be. Whatever the op sequence — including checkpoints, crashes and
recoveries — a partition scan must read exactly the model's entries for
that partition, in insertion order, and an emptied store must be
indistinguishable from a new one.
"""

import time

from hypothesis import given, settings, strategies as st

from repro.durability import DurabilityLayer
from repro.hopsfs import ShardedKVStore

SHARDS = 3
PARTITIONS = range(7)  # more partitions than shards: shards are shared

pks = st.sampled_from(PARTITIONS)
keys = st.sampled_from(["a", "b", "c", "d"])
values = st.integers(min_value=0, max_value=99)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), pks, keys, values),
        st.tuples(st.just("delete"), pks, keys),
        st.tuples(
            st.just("transact"),
            st.lists(st.tuples(pks, keys, values), max_size=3),
            st.lists(st.tuples(pks, keys), max_size=2),
        ),
        st.tuples(st.just("checkpoint"), st.booleans()),
        st.tuples(st.just("crash")),
    ),
    min_size=1,
    max_size=30,
)


def durable_store():
    return ShardedKVStore(shard_count=SHARDS, durability=DurabilityLayer())


def apply(store, model, op):
    kind = op[0]
    if kind == "put":
        _, pk, key, value = op
        store.put(pk, key, value)
        model[(pk, key)] = value
    elif kind == "delete":
        _, pk, key = op
        assert store.delete(pk, key) is ((pk, key) in model)
        model.pop((pk, key), None)
    elif kind == "transact":
        _, writes, deletes = op
        store.transact(writes=list(writes), deletes=list(deletes))
        for pk, key, value in writes:
            model[(pk, key)] = value
        for pk, key in deletes:
            model.pop((pk, key), None)
    elif kind == "checkpoint":
        store.checkpoint(truncate=op[1])
    else:
        store.crash()
        assert store.storage_entries() == 0
        store.recover()


def check(store, model):
    for pk in PARTITIONS:
        expected = [(key, value) for (p, key), value in model.items() if p == pk]
        assert store.scan(pk) == expected
        for key, value in expected:
            assert store.get(pk, key) == value
    items = [store.shard_items(shard) for shard in range(SHARDS)]
    for shard, triples in enumerate(items):
        assert all(store.shard_of(pk) == shard for pk, _, _ in triples)
    assert sorted(t for triples in items for t in triples) == sorted(
        (pk, key, value) for (pk, key), value in model.items()
    )
    assert store.storage_entries() == len(model)


@settings(max_examples=120, deadline=None)
@given(ops=ops)
def test_store_matches_flat_model_through_crashes_and_checkpoints(ops):
    store, model = durable_store(), {}
    for op in ops:
        apply(store, model, op)
        check(store, model)
    # Delete everything: no empty partition may linger anywhere — the image
    # of an emptied shard is byte-for-byte the image of a new one.
    for pk, key in list(model):
        apply(store, model, ("delete", pk, key))
    check(store, model)
    emptied = [snapshot.data for snapshot in store.checkpoint()]
    assert emptied == [snapshot.data for snapshot in durable_store().checkpoint()]
    store.crash()
    store.recover()
    assert [snapshot.data for snapshot in store.checkpoint()] == emptied


def test_reinserted_key_moves_to_the_end_of_its_partition():
    store = ShardedKVStore(shard_count=2)
    for key in ("a", "b", "c"):
        store.put(0, key, key)
    store.put(0, "a", "again")  # overwrite keeps its slot
    assert [key for key, _ in store.scan(0)] == ["a", "b", "c"]
    store.delete(0, "a")
    store.put(0, "a", "new")
    assert store.scan(0) == [("b", "b"), ("c", "c"), ("a", "new")]
    assert store.scan(2) == []  # same shard, no such partition


def best_of(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_scan_cost_follows_the_partition_not_the_shard():
    # Partitions 0 and 4 share shard 0 of 4. Listing the 3-key partition
    # must not pay for its 20 000-key neighbour (it did when a scan walked
    # the whole shard: the ratio below was ~4, it is in the hundreds now).
    store = ShardedKVStore(shard_count=4)
    big, small = 0, 4
    assert store.shard_of(big) == store.shard_of(small)
    for i in range(20_000):
        store.put(big, f"k{i}", i)
    for i in range(3):
        store.put(small, f"k{i}", i)
    assert len(store.scan(big)) == 20_000
    assert store.scan(small) == [("k0", 0), ("k1", 1), ("k2", 2)]
    t_big = best_of(lambda: store.scan(big))
    t_small = best_of(lambda: store.scan(small))
    assert t_big >= 20 * t_small, (t_big, t_small)
