"""Property tests for the shard-tagged event queue.

The contract (module docstring of :mod:`repro.simnet.shard`): for any
shard count and any assignment of events to shards, the executed order
is the global ``(time, sequence)`` order — identical to the plain
:class:`~repro.simnet.sim.Simulator`, same-instant ties included, for
``run`` and ``run_process`` alike — and every event runs in its shard:
the explicit one, else its scheduler's (0 in the build phase).
Programs here are pregenerated trees (events spawning events, plus
cancellations), interpreted once per kernel, and the full firing logs
are compared exactly.

The conservative-lookahead rule is checked both ways: a cross-shard
send with ``delay < lookahead`` is rejected at the call site, and every
accepted cross-shard send is delivered at or after both its send time
and the *end* of the sender's execution window — the independence
invariant that would let one window's shards run concurrently.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SimulationError
from repro.simnet.shard import ShardedSimulator
from repro.simnet.sim import Future, Simulator

# A deliberately collision-heavy delay alphabet: repeated values force
# same-instant ties, 0.0 forces now-reentrant events.
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.5, 7.25, 7.25, 30.0)


def build_program(rng: random.Random, n_roots: int, depth: int) -> list:
    """A random tree of events: (delay, explicit-shard-or-None,
    cancel-target-path-or-None, children)."""
    all_paths: list[tuple] = []

    def node(path: tuple, level: int):
        all_paths.append(path)
        delay = rng.choice(DELAYS)
        shard = rng.randrange(64) if rng.random() < 0.5 else None
        children = (
            [node(path + (j,), level + 1) for j in range(rng.randint(0, 2))]
            if level < depth else []
        )
        return (delay, shard, None, children)

    roots = [node((i,), 0) for i in range(n_roots)]

    def with_cancels(node, path):
        delay, shard, _, children = node
        cancel = (
            rng.choice(all_paths) if rng.random() < 0.15 else None
        )
        return (delay, shard, cancel, [
            with_cancels(child, path + (j,))
            for j, child in enumerate(children)
        ])

    return [with_cancels(root, (i,)) for i, root in enumerate(roots)]


def load(sim, program: list, on_fire=None) -> tuple[list, dict]:
    """Schedule ``program``'s roots on ``sim`` without running it.

    Returns the (time, path) firing log the run will fill, and for a
    sharded kernel the ``current_shard`` each fired path ran in.
    ``on_fire(path)`` is called after each firing.
    """
    log: list[tuple[float, tuple]] = []
    ran_in: dict[tuple, int] = {}
    timers: dict[tuple, object] = {}
    sharded = isinstance(sim, ShardedSimulator)

    def schedule_node(node, path):
        delay, shard, cancel, children = node

        def fire():
            log.append((sim.now, path))
            if sharded:
                ran_in[path] = sim.current_shard
            if cancel is not None:
                timer = timers.get(cancel)
                if timer is not None:
                    timer.cancel()
            for j, child in enumerate(children):
                schedule_node(child, path + (j,))
            if on_fire is not None:
                on_fire(path)

        if sharded and shard is not None:
            timers[path] = sim.schedule(delay, fire, shard=shard % sim.n_shards)
        else:
            timers[path] = sim.schedule(delay, fire)

    for i, root in enumerate(program):
        schedule_node(root, (i,))
    return log, ran_in


def interpret(sim, program: list) -> list[tuple[float, tuple]]:
    """Run ``program`` on ``sim``; return the (time, path) firing log."""
    log, _ = load(sim, program)
    sim.run()
    return log


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=3
    ),
)
def test_merge_order_identical_to_single_queue(seed, shards):
    """Any shard count, any event-to-shard assignment, spawning and
    cancelling events at runtime: the firing log matches the plain
    kernel's exactly, ties included."""
    program = build_program(random.Random(seed), n_roots=12, depth=3)
    reference = interpret(Simulator(), program)
    times = [t for t, _ in reference]
    assert times == sorted(times), "base kernel must fire in time order"
    for n_shards in shards:
        log = interpret(ShardedSimulator(shards=n_shards), program)
        assert log == reference, f"divergence with {n_shards} shards"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_run_until_parity(seed):
    """Partial runs stop at the same point: same log prefix, same now."""
    program = build_program(random.Random(seed), n_roots=10, depth=2)
    logs = []
    for sim in (Simulator(), ShardedSimulator(shards=4)):
        log, _ = load(sim, program)
        sim.run(until=4.0)
        logs.append(log)
        assert sim.now == 4.0
    assert logs[0] == logs[1]


def expected_shards(program: list, n_shards: int) -> dict[tuple, int]:
    """The shard each path must run in: its explicit shard, else its
    scheduler's; roots scheduled in the build phase default to 0."""
    expected: dict[tuple, int] = {}

    def walk(node, path, inherited):
        _, shard, _, children = node
        own = inherited if shard is None else shard % n_shards
        expected[path] = own
        for j, child in enumerate(children):
            walk(child, path + (j,), own)

    for i, root in enumerate(program):
        walk(root, (i,), 0)
    return expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_events_run_in_their_shard(seed, n_shards):
    """The shard tag: an event scheduled without ``shard=`` runs in its
    scheduler's shard, an explicit shard is kept as given, and
    build-phase events default to shard 0."""
    program = build_program(random.Random(seed), n_roots=12, depth=3)
    sim = ShardedSimulator(shards=n_shards)
    _, ran_in = load(sim, program)
    sim.run()
    assert ran_in, "program fired nothing"
    expected = expected_shards(program, n_shards)
    for path, shard in ran_in.items():
        assert shard == expected[path], f"{path} ran in shard {shard}"


def run_as_process(sim, program: list, stop_path: tuple, timeout):
    """Drive ``program`` from a process that sleeps, then waits for
    ``stop_path`` to fire; returns everything ``run_process`` leaves
    observable (outcome or error, log, clock, event count)."""
    stopped = Future()
    logs = []

    def on_fire(path):
        if path == stop_path:
            stopped.resolve(sim.now)

    def proc():
        logs.append(load(sim, program, on_fire)[0])
        yield 0.5
        return (yield stopped)

    try:
        outcome = sim.run_process(proc(), timeout=timeout)
    except SimulationError as exc:
        outcome = str(exc)
    return outcome, logs, sim.now, sim.events_processed


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.integers(min_value=1, max_value=5),
    timeout=st.sampled_from([None, 3.0, 10.0]),
)
def test_run_process_parity(seed, shards, timeout):
    """``run_process`` stops where the plain kernel's does — on
    completion, timeout or deadlock — with the same log, clock and
    event count."""
    rng = random.Random(seed)
    program = build_program(rng, n_roots=10, depth=3)
    stop_path = rng.choice(list(expected_shards(program, 1)))
    reference = run_as_process(Simulator(), program, stop_path, timeout)
    sharded = run_as_process(
        ShardedSimulator(shards=shards), program, stop_path, timeout)
    assert sharded == reference


def test_cross_shard_send_below_lookahead_rejected():
    """During execution, scheduling into another shard closer than the
    lookahead window violates the independence invariant and raises."""
    sim = ShardedSimulator(shards=2, lookahead=10.0)
    failures: list[SimulationError] = []

    def offender():
        try:
            sim.schedule(5.0, lambda: None, shard=1)
        except SimulationError as exc:
            failures.append(exc)

    sim.schedule(1.0, offender, shard=0)
    sim.run()
    assert len(failures) == 1
    assert "lookahead" in str(failures[0])


def test_build_phase_sends_are_exempt_from_lookahead():
    """Pre-run scheduling partitions state freely — the window rule
    only constrains sends made *while executing* an event."""
    sim = ShardedSimulator(shards=2, lookahead=10.0)
    fired = []
    sim.schedule(0.5, lambda: fired.append(0), shard=0)
    sim.schedule(0.5, lambda: fired.append(1), shard=1)
    sim.run()
    assert fired == [0, 1]
    assert sim.cross_sends == []


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lookahead=st.sampled_from([5.0, 12.5, 40.0]),
)
def test_lookahead_never_delivers_early(seed, lookahead):
    """Every accepted cross-shard send lands at or after the sender's
    send time AND at or after the sender's window end, for random
    programs whose delays all clear the lookahead."""
    rng = random.Random(seed)
    sim = ShardedSimulator(shards=4, lookahead=lookahead)
    fired = []

    def make_fire(level):
        def fire():
            fired.append(sim.now)
            if level < 3:
                for _ in range(rng.randint(0, 2)):
                    sim.schedule(
                        lookahead + rng.random() * 50.0,
                        make_fire(level + 1),
                        shard=rng.randrange(4),
                    )
        return fire

    for _ in range(8):
        sim.schedule(rng.random() * 20.0, make_fire(0), shard=rng.randrange(4))
    sim.run()
    assert fired, "program fired nothing"
    for send, deliver, from_shard, to_shard, window_end in sim.cross_sends:
        assert from_shard != to_shard
        assert deliver >= send + lookahead
        assert deliver >= window_end, (
            "cross-shard event delivered inside the sender's window"
        )
    assert sim.windows_run >= 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lookahead_windows_do_not_change_results(seed):
    """Windows are bookkeeping, not behavior: the same all-clearing
    program fires identically with lookahead on and off."""
    program = build_program(random.Random(seed), n_roots=10, depth=2)
    # Delays in DELAYS max out at 30; a lookahead of 0.0... would not
    # accept them. Use a tiny lookahead every delay in the program
    # clears except 0.0 — so instead interpret with no explicit shards
    # crossing: run both with the same shard count, one windowed.
    plain = interpret(ShardedSimulator(shards=3), program)
    # Strip explicit shards so every send is ambient (same-shard) and
    # the windowed run accepts the whole program.
    def strip(node):
        delay, _, cancel, children = node
        return (delay, None, cancel, [strip(c) for c in children])

    stripped = [strip(root) for root in program]
    windowed = interpret(ShardedSimulator(shards=3, lookahead=0.25), stripped)
    unwindowed = interpret(ShardedSimulator(shards=3), stripped)
    assert windowed == unwindowed
    assert interpret(Simulator(), program) == plain


def test_shard_validation():
    sim = ShardedSimulator(shards=2)
    with pytest.raises(SimulationError):
        sim.schedule(1.0, lambda: None, shard=2)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        ShardedSimulator(shards=0)
