"""Tests for the k-bucket routing table."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.bootstrap import fill_table_positions
from repro.dht.keyspace import bucket_index, key_for_peer, xor_distance
from repro.dht.routing_table import K_BUCKET_SIZE, RoutingTable
from repro.multiformats.peerid import PeerId


def pid(n: int) -> PeerId:
    return PeerId.from_public_key(b"peer-%d" % n)


def test_k_is_20():
    # Section 2.3: "we maintain i=256 buckets of k-nodes each (where k=20)".
    assert K_BUCKET_SIZE == 20


def test_add_and_contains():
    table = RoutingTable(pid(0))
    assert table.add(pid(1))
    assert pid(1) in table
    assert len(table) == 1


def test_self_never_added():
    table = RoutingTable(pid(0))
    assert not table.add(pid(0))
    assert pid(0) not in table


def test_refresh_is_idempotent():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    assert table.add(pid(1))
    assert len(table) == 1


def test_remove():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    table.remove(pid(1))
    assert pid(1) not in table
    assert len(table) == 0
    table.remove(pid(1))  # no error


def test_bucket_capacity_enforced():
    table = RoutingTable(pid(0), bucket_size=3)
    added = sum(1 for n in range(1, 200) if table.add(pid(n)))
    sizes = table.bucket_sizes()
    assert all(size <= 3 for size in sizes.values())
    assert added == len(table)


def test_full_bucket_rejects_newcomer():
    table = RoutingTable(pid(0), bucket_size=2)
    # Find three peers that land in the same bucket.
    own_key = key_for_peer(pid(0))
    by_bucket: dict[int, list[PeerId]] = {}
    for n in range(1, 500):
        bucket = bucket_index(own_key, key_for_peer(pid(n)))
        group = by_bucket.setdefault(bucket, [])
        group.append(pid(n))
        if len(group) == 3:
            a, b, c = group
            break
    assert table.add(a) and table.add(b)
    assert not table.add(c)
    assert c not in table


def test_closest_returns_sorted_by_xor():
    table = RoutingTable(pid(0))
    target = key_for_peer(pid(9999))
    for n in range(1, 100):
        table.add(pid(n))
    closest = table.closest(target, 10)
    distances = [xor_distance(key_for_peer(p), target) for p in closest]
    assert distances == sorted(distances)
    # And they truly are the minimum over the whole table.
    all_distances = sorted(
        xor_distance(key_for_peer(p), target) for p in table.peers()
    )
    assert distances == all_distances[:10]


def test_closest_handles_small_table():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    assert table.closest(key_for_peer(pid(2)), 20) == [pid(1)]


def test_closest_on_empty_table():
    assert RoutingTable(pid(0)).closest(key_for_peer(pid(1))) == []


def test_peers_lists_everything():
    # Small buckets, so some adds are rejected: peers() must list
    # exactly the accepted ones, each once.
    table = RoutingTable(pid(0), bucket_size=2)
    added = [pid(n) for n in range(1, 60) if table.add(pid(n))]
    assert 0 < len(added) < 59
    assert sorted(table.peers()) == sorted(added)
    assert len(table) == len(added)


def test_default_threshold_evicts_on_first_failure():
    # go-ipfs v0.10 drops a peer from the table on its first failed query.
    table = RoutingTable(pid(0))
    table.add(pid(1))
    assert table.record_failure(pid(1))
    assert pid(1) not in table
    assert table.evictions == 1


def test_threshold_tolerates_transient_failures():
    table = RoutingTable(pid(0), failure_threshold=3)
    table.add(pid(1))
    assert not table.record_failure(pid(1))
    assert not table.record_failure(pid(1))
    assert table.failure_score(pid(1)) == 2
    assert pid(1) in table
    assert table.record_failure(pid(1))
    assert pid(1) not in table
    assert table.evictions == 1


def test_success_resets_failure_score():
    table = RoutingTable(pid(0), failure_threshold=2)
    table.add(pid(1))
    table.record_failure(pid(1))
    table.record_success(pid(1))
    assert table.failure_score(pid(1)) == 0
    assert not table.record_failure(pid(1))
    assert pid(1) in table


def test_eviction_of_absent_peer_not_counted():
    table = RoutingTable(pid(0))
    assert not table.record_failure(pid(1))
    assert table.evictions == 0


def test_remove_clears_failure_score():
    table = RoutingTable(pid(0), failure_threshold=3)
    table.add(pid(1))
    table.record_failure(pid(1))
    table.remove(pid(1))
    assert table.failure_score(pid(1)) == 0


@settings(max_examples=20)
@given(st.sets(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=60))
def test_closest_is_exact_property(ns):
    table = RoutingTable(pid(0), bucket_size=100)
    for n in ns:
        table.add(pid(n))
    target = key_for_peer(pid(123456))
    got = table.closest(target, 5)
    expected = sorted(table.peers(), key=lambda p: xor_distance(key_for_peer(p), target))[:5]
    assert got == expected


# -- bulk load -------------------------------------------------------------


def layout(table: RoutingTable) -> list:
    """Bucket order, entries and LRU order, key ints included."""
    return [(index, list(bucket.items())) for index, bucket in table._buckets.items()]


def test_load_matches_sequential_add_on_a_fill():
    # 400 peers, every fourth a client (in no table) and every seventh
    # server unreachable, so the fill samples live and stale entries.
    everyone = [pid(n) for n in range(400)]
    servers = sorted(
        (p for n, p in enumerate(everyone) if n % 4), key=PeerId.dht_key_int
    )
    keys = [p.dht_key_int() for p in servers]
    entries, offsets = fill_table_positions(
        keys,
        [pos % 7 != 0 for pos in range(len(servers))],
        [p.dht_key_int() for p in everyone],
        random.Random(5),
    )
    biggest = 0
    for index, own in enumerate(everyone):
        chosen = entries[offsets[index]:offsets[index + 1]]
        added = RoutingTable(own)
        for pos in chosen:
            assert added.add(servers[pos])
        loaded = RoutingTable(own)
        loaded.load([servers[pos] for pos in chosen], [keys[pos] for pos in chosen])
        assert layout(loaded) == layout(added)
        assert loaded.peers() == added.peers()
        assert len(loaded) == len(added) == len(chosen)
        biggest = max(biggest, len(loaded))
    assert biggest > K_BUCKET_SIZE  # tables span several full buckets


def load_args(peers):
    return list(peers), [p.dht_key_int() for p in peers]


def test_load_rejects_a_non_empty_table():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    with pytest.raises(ValueError, match="empty"):
        table.load(*load_args([pid(2)]))
    assert table.peers() == [pid(1)]


def test_load_into_an_emptied_table():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    table.remove(pid(1))
    table.load(*load_args([pid(2), pid(1)]))
    assert sorted(table.peers()) == sorted([pid(1), pid(2)])
    assert len(table) == 2


def test_load_rejects_our_own_key():
    table = RoutingTable(pid(0))
    with pytest.raises(ValueError, match="own key"):
        table.load(*load_args([pid(1), pid(0)]))
    assert len(table) == 0 and table.peers() == []


def test_load_rejects_a_duplicate():
    table = RoutingTable(pid(0))
    with pytest.raises(ValueError, match="twice"):
        table.load(*load_args([pid(1), pid(2), pid(1)]))
    assert len(table) == 0 and table.peers() == []


def test_load_rejects_a_bucket_overflow():
    own_key = key_for_peer(pid(0))
    same_bucket = [
        p for p in map(pid, range(1, 200))
        if bucket_index(own_key, key_for_peer(p)) == 0
    ][:3]
    table = RoutingTable(pid(0), bucket_size=2)
    table.load(*load_args(same_bucket[:2]))
    assert len(table) == 2
    table = RoutingTable(pid(0), bucket_size=2)
    with pytest.raises(ValueError, match="exceed"):
        table.load(*load_args(same_bucket))
    assert len(table) == 0 and table.peers() == []


def test_load_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        RoutingTable(pid(0)).load([pid(1), pid(2)], [pid(1).dht_key_int()])
