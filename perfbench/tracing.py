"""Host-time spans around calls into the program's layers.

Only the traced run installs anything here. :class:`Tracer` patches
public entry points of the simulator (``Simulator.schedule``, the run
loops, ``spawn``, ``Future.add_callback``/``resolve``/``fail``) and of each protocol
layer with thin wrappers that open a span on entry and close it on
exit; generator APIs are proxied so that every resume is its own span.
Callbacks the event kernel dispatches are attributed to the module that
defined them (a process resume to the module of the process's
generator). The wrappers only read clocks and counters, so a traced
unit simulates exactly what an untraced one does; the benchmark checks
that by comparing their digests.

Spans live in flat arrays (name, start, end, parent, operation) and
are strictly nested, because the simulator is single-threaded. A
layer's self time is a span's duration minus the part of it that its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.bitswap.engine import BitswapEngine
from repro.crawler.crawl import Crawler
from repro.crawler.prober import UptimeProber
from repro.dht import dht_node
from repro.dht.routing_table import RoutingTable
from repro.experiments import scenario as scenario_module
from repro.gateway import replay as replay_module
from repro.gateway.fleet import GatewayFleet
from repro.merkledag.builder import DagBuilder
from repro.merkledag.reader import DagReader
from repro.node.host import IpfsNode
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.shard import ShardedSimulator
from repro.simnet.sim import Future, Process, Simulator

#: Module prefix -> layer, most specific first. The layers are the
#: rows of the per-layer table in perfbench/README.md.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.simnet.sim", "kernel"),
    ("repro.simnet.shard", "kernel"),
    ("repro.simnet.compact", "world"),
    ("repro.simnet.churn", "world"),
    ("repro.experiments.scenario", "world"),
    ("repro.simnet", "net"),
    ("repro.dht.routing_table", "route"),
    ("repro.dht.bootstrap", "route"),
    ("repro.dht", "walk"),
    ("repro.bitswap", "bitswap"),
    ("repro.merkledag", "dag"),
    ("repro.blockstore", "dag"),
    ("repro.workloads", "workloads"),
    ("repro.crawler", "crawler"),
    ("repro.gateway", "gateway"),
    ("repro.node", "node"),
)

LAYERS = (
    "kernel", "net", "route", "walk", "bitswap", "dag", "world",
    "workloads", "crawler", "gateway", "node", "other",
)


def layer_of_module(module: str | None) -> str:
    """The layer a module belongs to (``other`` when none matches)."""
    if module:
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the part its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a
    root. Children are clipped to their parent's interval and
    overlapping children are counted once.
    """
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n  # furthest covered end per parent
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


class Spans:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self._stack: list[int] = []
        self._next_op = 0

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    def current_op(self) -> int:
        stack = self._stack
        return self.ops[stack[-1]] if stack else -1

    def open(self, name_id: int, op: int | None = None) -> int:
        stack = self._stack
        index = len(self.starts)
        parent = stack[-1] if stack else -1
        if op is None:
            op = self.ops[parent] if parent >= 0 else -1
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ops.append(op)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[None]:
        index = self.open(self.name_id(name), op)
        try:
            yield
        finally:
            self.close(index)

    def by_name(self) -> dict[str, dict[str, float]]:
        """name -> {count, total_s (inclusive), self_s}."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for i, name_id in enumerate(self.name_ids):
            row = out[names[name_id]]
            row["count"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
        return out

    def write(self, path) -> None:
        """Write every span: a JSON header line, then one
        ``name,start,end,parent,op`` line per span, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({
                "columns": ["name", "start_s", "end_s", "parent", "op"],
                "spans": len(self),
            }) + "\n")
            for i in range(len(self)):
                out.write(
                    f"{names[self.name_ids[i]]},{self.starts[i]:.7f},"
                    f"{self.ends[i]:.7f},{self.parents[i]},{self.ops[i]}\n"
                )


class Patcher:
    """Set attributes and put the originals back in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def proxy(spans: Spans, name_id: int, generator, op: int | None = None,
          on_return: Callable[[Any], None] | None = None):
    """Drive ``generator`` and time each of its resumes as a span."""
    value: Any = None
    error: BaseException | None = None
    while True:
        index = spans.open(name_id, op)
        try:
            if error is None:
                yielded = generator.send(value)
            else:
                yielded = generator.throw(error)
        except StopIteration as stop:
            spans.close(index)
            if on_return is not None:
                on_return(stop.value)
            return stop.value
        except BaseException:
            spans.close(index)
            raise
        spans.close(index)
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded to the proxied generator
            value, error = None, exc


class Tracer:
    """Spans and counters for one traced unit of work."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: dict[str, int] = {
            "kernel.events": 0, "dht.closest_calls": 0, "dht.table_adds": 0,
            "dht.walks": 0, "dht.walk_rpcs": 0, "dht.walk_rpcs_ok": 0,
            "dht.provide_targeted": 0, "dht.provide_stored": 0,
            "bitswap.blocks": 0, "bitswap.bytes": 0, "crawler.visits": 0,
        }
        self.networks: list[SimNetwork] = []
        self.probers: list[UptimeProber] = []
        self._layer_of_code: dict[Any, str] = {}
        self._callback_ids: dict[Any, int] = {}
        self._kernel_depth = 0

    # -- attribution ---------------------------------------------------

    def _layer_of_generator(self, generator) -> str:
        code = generator.gi_code
        layer = self._layer_of_code.get(code)
        if layer is None:
            frame = generator.gi_frame
            module = frame.f_globals.get("__name__") if frame is not None else None
            layer = self._layer_of_code[code] = layer_of_module(module)
        return layer

    def _callback_name_id(self, callback) -> int:
        """The span name for a callback: ``<layer>.cb``, the layer of
        the module that defined it (of a resumed process's generator)."""
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process) and owner._generator is not None:
            generator = owner._generator
            name_id = self._callback_ids.get(generator.gi_code)
            if name_id is None:
                layer = self._layer_of_generator(generator)
                name_id = self._callback_ids[generator.gi_code] = self.spans.name_id(f"{layer}.cb")
            return name_id
        module = getattr(callback, "__module__", None)
        name_id = self._callback_ids.get(module)
        if name_id is None:
            name_id = self._callback_ids[module] = self.spans.name_id(
                f"{layer_of_module(module)}.cb")
        return name_id

    def _wrap_callback(self, callback):
        spans = self.spans
        name_id = self._callback_name_id(callback)
        op = spans.current_op()

        def traced(*args):
            index = spans.open(name_id, op)
            try:
                return callback(*args)
            finally:
                spans.close(index)

        return traced

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patcher = Patcher()
        try:
            self._install(patcher)
            yield self
        finally:
            patcher.restore()

    def _install(self, p: Patcher) -> None:
        spans = self.spans
        tracer = self
        counts = self.counts

        def span_call(name: str, fn, count: str | None = None):
            name_id = spans.name_id(name)

            def wrapper(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                index = spans.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans.close(index)

            return wrapper

        def proxied(name: str, fn, op_root: bool = False, on_return=None):
            name_id = spans.name_id(name)

            def wrapper(*args, **kwargs):
                op = spans.new_op() if op_root else None
                return proxy(spans, name_id, fn(*args, **kwargs), op, on_return)

            return wrapper

        # -- kernel: run loops, scheduled/future callbacks, spawns -----
        kernel_id = spans.name_id("kernel.run")
        schedule_id = spans.name_id("kernel.schedule")
        future_id = spans.name_id("kernel.future")

        def kernel_loop(fn):
            def wrapper(sim, *args, **kwargs):
                outer = tracer._kernel_depth == 0
                before = sim.events_processed
                tracer._kernel_depth += 1
                index = spans.open(kernel_id)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    spans.close(index)
                    tracer._kernel_depth -= 1
                    if outer:
                        counts["kernel.events"] += sim.events_processed - before

            return wrapper

        for cls in (Simulator, ShardedSimulator):
            for name in ("run", "run_process"):
                p.patch(cls, name, kernel_loop(cls.__dict__[name]))

            def schedule(sim, delay, callback, *args, _orig=cls.__dict__["schedule"], **kwargs):
                index = spans.open(schedule_id)
                try:
                    return _orig(sim, delay, tracer._wrap_callback(callback), *args, **kwargs)
                finally:
                    spans.close(index)

            p.patch(cls, "schedule", schedule)

        # Settling a future runs its callbacks; the settling loop and the
        # bookkeeping of adding a callback are kernel time.
        add_callback = Future.__dict__["add_callback"]

        def traced_add_callback(future, callback):
            index = spans.open(future_id)
            try:
                return add_callback(future, tracer._wrap_callback(callback))
            finally:
                spans.close(index)

        p.patch(Future, "add_callback", traced_add_callback)
        for name in ("resolve", "fail"):
            p.patch(Future, name, span_call("kernel.future", Future.__dict__[name]))
        spawn = Simulator.__dict__["spawn"]

        def traced_spawn(sim, generator, name=""):
            layer = tracer._layer_of_generator(generator)
            index = spans.open(spans.name_id(f"{layer}.spawn"))
            try:
                return spawn(sim, generator, name)
            finally:
                spans.close(index)

        p.patch(Simulator, "spawn", traced_spawn)

        # -- transport ----------------------------------------------------
        net_init = SimNetwork.__dict__["__init__"]

        def init_network(net, *args, **kwargs):
            net_init(net, *args, **kwargs)
            tracer.networks.append(net)

        p.patch(SimNetwork, "__init__", init_network)
        register_handler = SimHost.__dict__["register_handler"]

        def traced_register(host, method, handler):
            # RPC handlers run inside the network's delivery callback;
            # their own layer claims their time.
            module = getattr(handler, "__module__", None)
            register_handler(host, method, span_call(f"{layer_of_module(module)}.handler", handler))

        p.patch(SimHost, "register_handler", traced_register)
        p.patch(SimNetwork, "dial", span_call("net.dial", SimNetwork.__dict__["dial"]))
        p.patch(SimNetwork, "rpc", span_call("net.rpc", SimNetwork.__dict__["rpc"]))

        # -- routing ------------------------------------------------------
        p.patch(RoutingTable, "closest",
                span_call("route.closest", RoutingTable.__dict__["closest"], "dht.closest_calls"))
        add = RoutingTable.__dict__["add"]

        def counted_add(table, peer_id):
            counts["dht.table_adds"] += 1
            return add(table, peer_id)

        p.patch(RoutingTable, "add", counted_add)
        for module in (scenario_module, replay_module):
            p.patch(module, "populate_routing_tables",
                    span_call("route.fill", module.populate_routing_tables))

        # -- walks --------------------------------------------------------
        def on_walk(result) -> None:
            stats = result[1]
            counts["dht.walks"] += 1
            counts["dht.walk_rpcs"] += stats.rpcs_sent
            counts["dht.walk_rpcs_ok"] += stats.rpcs_ok

        for name in ("get_closest_peers", "find_providers", "find_peer_record"):
            p.patch(dht_node, name,
                    proxied(f"walk.{name}", getattr(dht_node, name), on_return=on_walk))

        # -- bitswap ------------------------------------------------------
        def on_block(result) -> None:
            counts["bitswap.blocks"] += 1
            counts["bitswap.bytes"] += result.block.size

        p.patch(BitswapEngine, "fetch_block",
                proxied("bitswap.fetch_block", BitswapEngine.__dict__["fetch_block"],
                        on_return=on_block))

        # -- merkledag ----------------------------------------------------
        p.patch(DagBuilder, "add_bytes", span_call("dag.add", DagBuilder.__dict__["add_bytes"]))
        p.patch(DagReader, "cat", span_call("dag.cat", DagReader.__dict__["cat"]))

        # -- node: the operations of the publish/retrieve loop -------------
        def on_publish(receipt) -> None:
            counts["dht.provide_targeted"] += receipt.peers_targeted
            counts["dht.provide_stored"] += receipt.peers_stored

        p.patch(IpfsNode, "publish",
                proxied("node.publish", IpfsNode.__dict__["publish"], True, on_publish))
        p.patch(IpfsNode, "retrieve",
                proxied("node.retrieve", IpfsNode.__dict__["retrieve"], True))

        # -- crawler ------------------------------------------------------
        def on_crawl(result) -> None:
            counts["crawler.visits"] += len(result.peers_seen)

        p.patch(Crawler, "crawl", proxied("crawler.crawl", Crawler.__dict__["crawl"], True, on_crawl))
        prober_init = UptimeProber.__dict__["__init__"]

        def init_prober(prober, *args, **kwargs):
            prober_init(prober, *args, **kwargs)
            tracer.probers.append(prober)

        p.patch(UptimeProber, "__init__", init_prober)

        # -- gateway ------------------------------------------------------
        p.patch(GatewayFleet, "get", proxied("gateway.get", GatewayFleet.__dict__["get"], True))
        p.patch(replay_module, "resolve_tiers",
                span_call("gateway.resolve", replay_module.resolve_tiers))
        p.patch(replay_module, "generate_columnar_trace",
                span_call("workloads.gen", replay_module.generate_columnar_trace))

    # -- the per-layer metrics of one traced unit ------------------------

    def layer_metrics(self, counters: dict) -> tuple[dict[str, float], dict[str, dict]]:
        """Every per-layer metric of the unit, 0 where a layer did no
        work, and the numerator and base of every ratio among them.
        ``counters`` are the ones the unit read from the program."""
        rows = self.spans.by_name()
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, row in rows.items():
            self_by_layer[name.split(".", 1)[0]] += row["self_s"]

        def total(name: str) -> float:
            return rows.get(name, {}).get("total_s", 0.0)

        c = self.counts
        nets = [net.stats for net in self.networks]
        misses = counters.get("gateway.misses", 0)
        bases = {
            "kernel.self_us_per_event": (self_by_layer["kernel"] * 1e6, c["kernel.events"]),
            "net.dial_fail_share": (sum(n.dials_failed for n in nets),
                                    sum(n.dials_attempted for n in nets)),
            "net.rpc_ok_share": (sum(n.rpcs_completed for n in nets),
                                 sum(n.rpcs_sent for n in nets)),
            "dht.walk_rpcs_per_walk": (c["dht.walk_rpcs"], c["dht.walks"]),
            "dht.walk_rpc_ok_share": (c["dht.walk_rpcs_ok"], c["dht.walk_rpcs"]),
            "dht.provide_stored_share": (c["dht.provide_stored"], c["dht.provide_targeted"]),
            "gateway.coalesced_join_share": (counters.get("gateway.coalesced_joins", 0), misses),
            "gateway.shed_share": (counters.get("gateway.shed", 0), misses),
        }
        metrics = {name: part / base if base else 0.0 for name, (part, base) in bases.items()}
        metrics.update({
            "kernel.events": c["kernel.events"],
            "kernel.self_s": self_by_layer["kernel"],
            "net.dials": bases["net.dial_fail_share"][1],
            "net.rpcs": bases["net.rpc_ok_share"][1],
            "net.bytes": sum(n.bytes_transferred for n in nets),
            "net.self_s": self_by_layer["net"],
            "dht.closest_calls": c["dht.closest_calls"],
            "dht.closest_self_s": rows.get("route.closest", {}).get("self_s", 0.0),
            "dht.table_adds": c["dht.table_adds"],
            "dht.fill_s": total("route.fill"),
            "dht.route_self_s": self_by_layer["route"],
            "dht.walks": c["dht.walks"],
            "dht.walk_self_s": self_by_layer["walk"],
            "bitswap.blocks": c["bitswap.blocks"],
            "bitswap.bytes": c["bitswap.bytes"],
            "bitswap.self_s": self_by_layer["bitswap"],
            "dag.add_s": total("dag.add"),
            "dag.cat_s": total("dag.cat"),
            "dag.self_s": self_by_layer["dag"],
            "world.build_s": total("world.build"),
            "world.materialized": counters.get("materialized", 0),
            "world.bytes_per_peer": counters.get("bytes_per_peer", 0.0),
            "world.self_s": self_by_layer["world"],
            "workloads.gen_s": total("workloads.gen"),
            "crawler.visits": c["crawler.visits"],
            "crawler.self_s": self_by_layer["crawler"],
            "prober.probes": sum(prober.probes_sent for prober in self.probers),
            "gateway.resolve_s": total("gateway.resolve"),
            "gateway.misses": misses,
            "gateway.upstream_launches": counters.get("gateway.upstream_launches", 0),
            "gateway.self_s": self_by_layer["gateway"],
            "node.self_s": self_by_layer["node"],
            "other.self_s": self_by_layer["other"],
            "trace.spans": len(self.spans),
        })
        return metrics, {name: {"part": part, "base": base}
                         for name, (part, base) in bases.items()}
