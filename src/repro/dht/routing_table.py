"""The Kademlia routing table: 256 k-buckets of 20 peers each.

Bucket ``i`` holds peers whose DHT key shares exactly ``i`` leading
bits with ours. Buckets follow least-recently-seen discipline: a full
bucket rejects newcomers; refreshing an existing entry moves it to the
tail (classic Kademlia favours long-lived peers, which the churn
analysis of Section 5.3 justifies: old peers are likelier to stay).

Only *DHT servers* are ever inserted (Section 2.3): the caller filters
out clients, which is the v0.5 change the paper credits with a major
performance boost.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.dht.keyspace import KEY_BITS, key_int_for_peer, key_for_peer
from repro.multiformats.peerid import PeerId

#: Bucket capacity and record replication factor (Section 2.3).
K_BUCKET_SIZE = 20


class RoutingTable:
    """256 buckets of up to k = 20 peers, keyed by common prefix length.

    Peers accumulate a failure score via :meth:`record_failure`; after
    ``failure_threshold`` consecutive RPC failures they are evicted (as
    go-ipfs does). The default threshold of 1 reproduces the paper's
    go-ipfs v0.10 behaviour — evict on the first failed query — while
    chaos experiments raise it so transient injected faults do not
    strip the table bare.
    """

    def __init__(
        self,
        own_id: PeerId,
        bucket_size: int = K_BUCKET_SIZE,
        failure_threshold: int = 1,
    ) -> None:
        self.own_id = own_id
        self.own_key = key_for_peer(own_id)
        self.own_key_int = key_int_for_peer(own_id)
        self.bucket_size = bucket_size
        self.failure_threshold = max(1, failure_threshold)
        # Bucket dicts map peer -> cached DHT key int; insertion order
        # doubles as the least-recently-seen order (a refresh re-inserts
        # at the tail). Buckets are allocated *sparsely*, keyed by
        # index: a table only ever populates O(log n) of its 256
        # buckets, and the 256 upfront empty dicts (~16 KB/table) were
        # the dominant per-peer memory cost at 100k+ peers.
        self._buckets: dict[int, dict[PeerId, int]] = {}
        self._size = 0
        self._failures: dict[PeerId, int] = {}
        #: peers evicted by the failure score (degradation telemetry)
        self.evictions = 0
        #: optional circuit-breaker registry (anything with
        #: ``is_open(peer_id)``); when set, :meth:`closest` filters out
        #: peers whose breaker is currently open. Entries are *not*
        #: evicted — an open breaker is a temporary verdict, eviction
        #: is permanent.
        self.breakers = None

    def __len__(self) -> int:
        return self._size

    def __contains__(self, peer_id: PeerId) -> bool:
        if peer_id == self.own_id:
            return False
        bucket = self._buckets.get(self._bucket_for(peer_id))
        return bucket is not None and peer_id in bucket

    def _bucket_for(self, peer_id: PeerId) -> int:
        # Inline common_prefix_length on the cached integer keys: the
        # XOR plus bit_length is the whole computation, with no byte
        # conversions or hashing (both are cached on the PeerId).
        # (A zero distance has bit_length 0 and lands in the last bucket.)
        distance = self.own_key_int ^ key_int_for_peer(peer_id)
        return min(KEY_BITS - distance.bit_length(), KEY_BITS - 1)

    def add(self, peer_id: PeerId) -> bool:
        """Insert or refresh a peer; returns True if present afterwards.

        A full bucket rejects new peers (see module docstring).
        """
        if peer_id == self.own_id:
            return False
        key_int = key_int_for_peer(peer_id)
        distance = self.own_key_int ^ key_int
        index = min(KEY_BITS - distance.bit_length(), KEY_BITS - 1)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = {}
        existing = bucket.pop(peer_id, None)
        if existing is not None:
            bucket[peer_id] = existing  # re-insert at the tail (refresh)
            return True
        if len(bucket) >= self.bucket_size:
            return False
        bucket[peer_id] = key_int
        self._size += 1
        return True

    def load(self, peer_ids: Sequence[PeerId], key_ints: Sequence[int]) -> None:
        """Fill an empty table: the layout ``add`` of each entry in
        turn would build, without its per-entry refresh checks.

        ``key_ints[i]`` is ``peer_ids[i]``'s DHT key int. Entries go to
        their buckets in the given order, which becomes the LRU order.
        Raises ``ValueError`` (leaving the table empty) if the table is
        not empty, or if an entry is our own key, is repeated, or would
        overflow its bucket — cases where ``add`` would have skipped
        the entry instead, so the two can never silently diverge.
        """
        if self._size:
            raise ValueError(f"load needs an empty table, this one has {self._size} peers")
        buckets = self._buckets
        own = self.own_key_int
        cap = self.bucket_size
        try:
            for peer_id, key_int in zip(peer_ids, key_ints, strict=True):
                distance = own ^ key_int
                if distance == 0:
                    raise ValueError(f"cannot load our own key ({peer_id})")
                index = min(KEY_BITS - distance.bit_length(), KEY_BITS - 1)
                bucket = buckets.get(index)
                if bucket is None:
                    bucket = buckets[index] = {}
                size = len(bucket)
                if size >= cap:
                    raise ValueError(f"bucket {index} would exceed {cap} entries")
                bucket[peer_id] = key_int
                if len(bucket) == size:
                    raise ValueError(f"peer {peer_id} is loaded twice")
        except ValueError:
            buckets.clear()
            raise
        self._size = sum(map(len, buckets.values()))

    def remove(self, peer_id: PeerId) -> None:
        """Evict a peer (e.g. after a failed dial)."""
        self._failures.pop(peer_id, None)
        bucket = self._buckets.get(self._bucket_for(peer_id), {})
        if peer_id in bucket:
            del bucket[peer_id]
            self._size -= 1

    # -- failure scoring ---------------------------------------------------

    def record_success(self, peer_id: PeerId) -> None:
        """A query succeeded: reset the peer's failure score."""
        self._failures.pop(peer_id, None)

    def record_failure(self, peer_id: PeerId) -> bool:
        """A query failed: bump the score; evict past the threshold.

        Returns True when the peer was evicted by this call.
        """
        count = self._failures.get(peer_id, 0) + 1
        if count >= self.failure_threshold:
            evicted = peer_id in self
            self.remove(peer_id)
            if evicted:
                self.evictions += 1
            return evicted
        self._failures[peer_id] = count
        return False

    def failure_score(self, peer_id: PeerId) -> int:
        """Current consecutive-failure count for ``peer_id``."""
        return self._failures.get(peer_id, 0)

    def closest(self, target_key: bytes, count: int = K_BUCKET_SIZE) -> list[PeerId]:
        """The ``count`` known peers closest to ``target_key`` by XOR.

        This is the hottest routing-table path (every FIND_NODE handler
        calls it), so it sorts only the buckets it needs. If the target
        falls in our bucket ``b``, the XOR order of buckets is fixed:
        bucket ``b`` is nearest, then every deeper bucket (pooled: they
        all differ from the target first at bit ``b``), then buckets
        ``b - 1``, ``b - 2``, ..., 0, each farther than the last. Taking
        whole groups in that order until ``count`` peers are in hand,
        then sorting ``(distance, peer)`` over them, gives exactly a
        full sort's prefix.
        """
        if count <= 0:
            return []
        target = int.from_bytes(target_key, "big")
        buckets = self._buckets
        is_open = None if self.breakers is None else self.breakers.is_open
        if count >= self._size:
            # Every entry is wanted (small worlds): skip the walk.
            pairs = _pairs(target, is_open, buckets.values())
        else:
            distance = self.own_key_int ^ target
            home = min(KEY_BITS - distance.bit_length(), KEY_BITS - 1)
            bucket = buckets.get(home)
            pairs = _pairs(target, is_open, (bucket,)) if bucket else []
            if len(pairs) < count:
                pairs += _pairs(
                    target, is_open,
                    [bucket for index, bucket in buckets.items() if index > home],
                )
                if len(pairs) < count:
                    for index in sorted((i for i in buckets if i < home), reverse=True):
                        pairs += _pairs(target, is_open, (buckets[index],))
                        if len(pairs) >= count:
                            break
        pairs.sort()
        return [peer_id for _, peer_id in pairs[:count]]

    def peers(self) -> list[PeerId]:
        """All table entries (used by the crawler's bucket dumps)."""
        return [
            pid for index in sorted(self._buckets)
            for pid in self._buckets[index]
        ]

    def bucket_sizes(self) -> dict[int, int]:
        """Populated bucket index -> entry count (diagnostics)."""
        return {
            index: len(self._buckets[index])
            for index in sorted(self._buckets)
            if self._buckets[index]
        }


def _pairs(
    target: int, is_open, group: Iterable[dict[PeerId, int]]
) -> list[tuple[int, PeerId]]:
    """``(distance to target, peer)`` for the group's peers whose
    breaker (if any) is closed."""
    if is_open is None:
        return [
            (key_int ^ target, peer_id)
            for bucket in group for peer_id, key_int in bucket.items()
        ]
    return [
        (key_int ^ target, peer_id)
        for bucket in group for peer_id, key_int in bucket.items()
        if not is_open(peer_id)
    ]

