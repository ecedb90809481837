"""Routing-table bootstrap.

Two ways to wire up a simulated DHT:

- :func:`join_network` — the organic path a real node takes: seed the
  table with the canonical bootstrap peers, then walk towards our own
  key to discover our neighbourhood (Section 2.2's "joining ... by
  connecting to a set of canonical bootstrap peers").
- :func:`populate_routing_tables` — a fast-forward for large worlds:
  fill every node's k-buckets directly from the global peer list, with
  the same per-bucket structure an organically-converged Kademlia
  reaches. Building a 10 k-peer network organically would cost millions
  of simulated RPCs for no extra fidelity in the steady state the
  paper's experiments measure.

The bucket-fill trick: peers whose key shares exactly ``i`` leading
bits with ours occupy one contiguous interval of the sorted key space,
so each bucket is a binary search plus a bounded sample. The fill
itself is :func:`fill_table_positions`, over key ints and positions
only: :func:`populate_routing_tables` loads its result into live
``RoutingTable`` objects, and :class:`~repro.simnet.compact.CompactWorld`
keeps it as flat arrays until a peer is materialized.
"""

from __future__ import annotations

import bisect
import random
from array import array
from collections.abc import Generator, Iterable, Sequence

from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import KEY_BITS, key_for_peer
from repro.dht.routing_table import K_BUCKET_SIZE
from repro.multiformats.peerid import PeerId


def join_network(node: DhtNode, bootstrap_peers: list[PeerId]) -> Generator:
    """Organic join: seed with bootstrap peers, then self-lookup.

    Returns the join's :class:`~repro.dht.lookup.LookupStats`.
    """
    node.bootstrap(bootstrap_peers)
    _, stats = yield from node.walk_closest(key_for_peer(node.host.peer_id))
    return stats


def populate_routing_tables(
    nodes: list[DhtNode],
    rng: random.Random,
    stale_fraction: float = 0.05,
) -> None:
    """Fill k-buckets of every node from the server subset of ``nodes``.

    Only DHT servers are inserted into tables (the client/server rule
    of Section 2.3); client nodes still get tables so they can launch
    lookups.

    ``stale_fraction`` bounds the share of *unreachable* peers per
    bucket. Live routing tables are continuously maintained, so they
    are much healthier than the crawl-wide 45.5 % undialable rate —
    but never perfectly clean, and those stale entries are what the
    walk's dial timeouts hit.
    """
    servers = sorted(
        (node for node in nodes if node.server),
        key=lambda node: node.host.peer_id.dht_key_int(),
    )
    ids = [node.host.peer_id for node in servers]
    keys = [peer_id.dht_key_int() for peer_id in ids]
    entries, offsets = fill_table_positions(
        keys,
        [node.host.reachable for node in servers],
        [node.host.peer_id.dht_key_int() for node in nodes],
        rng,
        stale_fraction,
    )
    for index, node in enumerate(nodes):
        chosen = entries[offsets[index]:offsets[index + 1]]
        node.routing_table.load(
            [ids[pos] for pos in chosen], [keys[pos] for pos in chosen]
        )


class _SliceView(Sequence):
    """A zero-copy window onto a sorted positions list.

    ``random.sample`` only needs ``len`` and integer ``__getitem__``,
    and its draws depend solely on the population *length* — so handing
    it a view over ``positions[lo:hi]`` draws exactly what a slice copy
    would, without the O(interval) copy that made bucket 0 (half the
    keyspace) quadratic over all nodes.
    """

    __slots__ = ("_base", "_lo", "_hi")

    def __init__(self, base: list[int], lo: int, hi: int) -> None:
        self._base = base
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index: int) -> int:
        # random.sample only indexes 0 <= j < len(self); the base
        # list's own bounds check guards the upper edge.
        return self._base[self._lo + index]

    def __iter__(self):
        # sample's pool path (len <= 85) and the rare leftovers scan
        # iterate the view; one C-level slice beats the Sequence
        # mixin's per-element __getitem__ protocol.
        return iter(self._base[self._lo:self._hi])


def fill_table_positions(
    keys: list[int],
    live: Sequence[bool],
    own_keys: Iterable[int],
    rng: random.Random,
    stale_fraction: float = 0.05,
) -> tuple[array, array]:
    """The converged k-bucket contents of every node, as flat positions.

    ``keys`` are the DHT servers' key ints in ascending order and
    ``live[pos]`` says whether server ``pos`` is reachable. For each
    key of ``own_keys``, in order, the chosen server positions are
    appended to ``entries`` in insertion order; node ``i``'s entries
    are ``entries[offsets[i]:offsets[i + 1]]``.
    """
    # Ascending positions of live / stale servers: a bucket's live set
    # is a bisect window of these, not a scan of the bucket interval.
    live_positions = [pos for pos, ok in enumerate(live) if ok]
    stale_positions = [pos for pos, ok in enumerate(live) if not ok]
    entries = array("i")
    offsets = array("Q", [0])
    append = entries.append
    bl = bisect.bisect_left
    sample = rng.sample
    cap = K_BUCKET_SIZE
    n_stale_max = int(cap * stale_fraction)
    n_servers = len(keys)
    for own_int in own_keys:
        # [cur_lo, cur_hi) tracks the servers sharing our first `bucket`
        # key bits; bucket `bucket`'s interval is its sibling half, so
        # one boundary bisect (bounded to the parent interval) per
        # bucket finds it.
        cur_lo, cur_hi = 0, n_servers
        for bucket in range(KEY_BITS):
            if cur_hi - cur_lo <= cap:
                # Every remaining server shares >= bucket leading bits
                # with us, so each deeper bucket's slice fits under
                # `cap` and is taken wholesale, without iterating the
                # ~240 empty tail buckets.
                for pos in range(cur_lo, cur_hi):
                    if keys[pos] != own_int:
                        append(pos)
                break
            shift = KEY_BITS - bucket - 1
            prefix = own_int >> shift
            if prefix & 1:
                mid = bl(keys, prefix << shift, cur_lo, cur_hi)
                start, end = cur_lo, mid
                cur_lo = mid
            else:
                mid = bl(keys, (prefix ^ 1) << shift, cur_lo, cur_hi)
                start, end = mid, cur_hi
                cur_hi = mid
            if end - start <= cap:
                for pos in range(start, end):
                    if keys[pos] != own_int:
                        append(pos)
                continue
            live_view = _SliceView(
                live_positions, bl(live_positions, start), bl(live_positions, end)
            )
            stale_view = _SliceView(
                stale_positions, bl(stale_positions, start), bl(stale_positions, end)
            )
            n_stale = min(len(stale_view), n_stale_max)
            chosen = sample(live_view, min(len(live_view), cap - n_stale))
            chosen += sample(stale_view, n_stale)
            if len(chosen) < cap:
                taken = set(chosen)
                leftovers = [pos for pos in stale_view if pos not in taken]
                chosen += sample(leftovers, min(len(leftovers), cap - len(chosen)))
            for pos in chosen:
                if keys[pos] != own_int:
                    append(pos)
        offsets.append(len(entries))
    return entries, offsets
