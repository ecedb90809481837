"""Shard-tagged events over the kernel's single event heap.

The experiment runner already shards work *across* simulations
(``repro.experiments.runner``); this module carries the idea *within*
one world as a tag: every event records the shard (a region, a peer
partition — any stable assignment) it belongs to, and executes with
:attr:`ShardedSimulator.current_shard` set to it.

Determinism argument (pinned by ``tests/simnet/test_sharded_queue.py``):
events live in the base kernel's one heap, ordered by ``(time,
sequence)`` with one globally monotonic sequence number per
``schedule`` call, so the executed order is *identical to the plain
:class:`~repro.simnet.sim.Simulator`'s for any shard count and any
assignment of events to shards*, same-instant ties included. The shard
is carried in the fourth slot of the event cell and never compared.

Conservative lookahead (the PDES window rule): with ``lookahead=L``
set, execution is partitioned into windows ``[W, W + L)`` and an event
executing in shard ``r`` may only schedule into a different shard ``s``
with ``delay >= L``. Cross-shard messages therefore always land in a
window *after* the sender's, which makes the events of one window
mutually independent across shards — the invariant that would let each
shard's slice of a window run on its own core. (Execution here is
sequential either way, so results are byte-identical with the windows
on or off; the property suite checks the invariant itself.)
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError
from repro.simnet.sim import _FREE_LIST_CAP, Future, Simulator, Timer


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` whose events carry a shard tag.

    ``schedule`` tags events with the *current* shard (the shard of the
    event being executed; 0 during the build phase) unless an explicit
    ``shard=`` is given; the build phase can pre-partition long-lived
    state (e.g. churn timers per region) and protocol callbacks inherit
    their shard ambiently. Event cells are ``[time, sequence, callback,
    shard]``.
    """

    def __init__(self, shards: int = 1, lookahead: float | None = None) -> None:
        super().__init__()
        if shards < 1:
            raise SimulationError(f"need at least one shard, got {shards}")
        self.n_shards = shards
        #: the shard whose event is currently executing (events
        #: scheduled without an explicit shard inherit it).
        self.current_shard = 0
        self.lookahead = lookahead
        #: cross-shard sends observed while ``lookahead`` is set:
        #: ``(send_time, deliver_time, from_shard, to_shard,
        #: window_end_at_send)`` — the property tests assert delivery
        #: never precedes the send time or the sender's window.
        self.cross_sends: list[tuple[float, float, int, int, float]] = []
        self.windows_run = 0
        self._window_end: float | None = None
        self._executing = False

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        shard: int | None = None,
    ) -> Timer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        if shard is None:
            shard = self.current_shard
        elif not 0 <= shard < self.n_shards:
            raise SimulationError(f"no such shard: {shard}")
        elif self.lookahead is not None and self._executing and shard != self.current_shard:
            if delay < self.lookahead:
                raise SimulationError(
                    f"cross-shard send needs delay >= lookahead "
                    f"({self.lookahead}), got {delay}"
                )
            self.cross_sends.append((
                self.now, self.now + delay, self.current_shard, shard,
                self._window_end if self._window_end is not None else self.now,
            ))
        sequence = self._sequence
        self._sequence = sequence + 1
        free = self._free
        if free:
            event = free.pop()
            event[0] = self.now + delay
            event[1] = sequence
            event[2] = callback
            event[3] = shard
        else:
            event = [self.now + delay, sequence, callback, shard]
        heapq.heappush(self._queue, event)
        return Timer(event, sequence)

    def _windowed(self, time: float, callback: Callable[[], None]) -> None:
        """Run one event's callback under the lookahead window rule."""
        if self._window_end is None or time >= self._window_end:
            self._window_end = time + self.lookahead
            self.windows_run += 1
        self._executing = True
        try:
            callback()
        finally:
            self._executing = False

    # -- run loops: the base kernel's, plus the shard and window -----------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        count = 0
        queue = self._queue
        free = self._free
        heappop = heapq.heappop
        while queue:
            event = queue[0]
            if until is not None and event[0] > until:
                self.now = until
                return
            heappop(queue)
            callback = event[2]
            event[2] = None
            if len(free) < _FREE_LIST_CAP:
                free.append(event)
            if callback is None:
                continue  # cancelled: lazy deletion
            self.now = event[0]
            self._processed += 1
            self.current_shard = event[3]
            if self.lookahead is None:
                callback()
            else:
                self._windowed(event[0], callback)
            count += 1
            if max_events is not None and count >= max_events:
                raise SimulationError(f"exceeded {max_events} events")
        if until is not None:
            self.now = max(self.now, until)

    def run_process(self, generator, timeout: float | None = None):
        deadline = None if timeout is None else self.now + timeout
        process = self.spawn(generator)
        future = process.future
        queue = self._queue
        free = self._free
        heappop = heapq.heappop
        while future._state == Future._PENDING:
            if not queue:
                raise SimulationError("process did not complete (deadlock)")
            event = queue[0]
            if deadline is not None and event[0] > deadline:
                raise SimulationError("process did not complete (timeout)")
            heappop(queue)
            callback = event[2]
            event[2] = None
            if len(free) < _FREE_LIST_CAP:
                free.append(event)
            if callback is None:
                continue  # cancelled: lazy deletion
            self.now = event[0]
            self._processed += 1
            self.current_shard = event[3]
            if self.lookahead is None:
                callback()
            else:
                self._windowed(event[0], callback)
        return future.result()
