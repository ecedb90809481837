"""The benchmark's workloads, each a repeatable unit of work.

A unit builds its inputs from one seed, runs the program through its
public entry points, checks the outputs and returns a
:class:`UnitResult`. Its set-up and its work are timed by a
:class:`~gauge.Gauge`, in host seconds scaled to a nominal host speed.
The benchmark runs units back to back, each on a seed derived from the
run's ``--seed``, so every run covers several independent inputs and
reports medians over them.

- ``publish_retrieve`` -- the section 4.3 protocol over a materialized,
  churning world with the six AWS vantage nodes: a closed loop with one
  operation in flight (one region publishes a 0.5 MB object, the other
  five disconnect and retrieve it).
- ``crawl_churn`` -- the Fig 4a/8 crawl and uptime-probe campaign over a
  lazily materialized compact world.
- ``gateway_replay`` -- a scaled gateway day replayed open loop at the
  trace's own (simulated) arrival times, misses going through the real
  bridge/fleet overload machinery.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro.experiments.deployment import run_crawl_timeseries
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scale import ScaleCrawlConfig, grade_scale_results
from repro.experiments.scenario import AWS_REGIONS, ScenarioConfig, build_scenario
from repro.gateway.replay import ReplayConfig, run_replay
from repro.node.host import IpfsNode
from repro.simnet.compact import build_compact_world
from repro.utils.rng import derive_rng
from repro.utils.stats import percentiles
from repro.validation.targets import TARGETS_BY_KEY
from repro.workloads.compact import generate_compact_population
from repro.workloads.gateway_trace import GatewayTraceConfig, generate_columnar_trace
from repro.workloads.population import PopulationConfig, generate_population

from gauge import INTERVAL_S, Gauge
from tracing import Patcher, Tracer


@dataclass
class UnitResult:
    """What one unit of work did, measured and checked."""

    #: set-up and work seconds, at nominal host speed (see gauge.py)
    setup_s: float
    work_s: float
    #: operations counted by ``ops_per_s``: publishes + retrieves,
    #: crawl peer visits, or replayed trace requests.
    completed: int
    attempted: int
    failed: int
    #: sha256 of the unit's simulated outputs.
    digest: str
    #: descriptions of the checks that failed (empty when correct).
    check_failures: list[str] = field(default_factory=list)
    #: host milliseconds per operation, by operation kind.
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    #: paper target key -> {measured, paper, error}.
    fidelity: dict[str, dict[str, float]] = field(default_factory=dict)
    #: counters the program keeps, read after the unit.
    counters: dict[str, float] = field(default_factory=dict)
    #: the same as host seconds, and the host's slowdown in each
    host_s: dict[str, float] = field(default_factory=dict)
    slowdown: dict[str, float] = field(default_factory=dict)


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else repr(part).encode())
    return hasher.hexdigest()


def _span(tracer: Tracer | None, name: str):
    return tracer.spans.span(name) if tracer is not None else nullcontext()


def _gauge(tracer: Tracer | None) -> Gauge:
    # A traced unit samples only outside its spans.
    return Gauge(None if tracer is not None else INTERVAL_S)


def _timings(setup_s: float, work_s: float, /, **sections) -> dict:
    """UnitResult fields for the scaled set-up and work seconds and the
    gauge sections they came from."""
    return {
        "setup_s": setup_s,
        "work_s": work_s,
        "host_s": {name: section.host_s for name, section in sections.items()},
        "slowdown": {name: section.slowdown for name, section in sections.items()},
    }


def _current_rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _fidelity(key: str, measured: float) -> dict[str, float]:
    target = TARGETS_BY_KEY[key]
    return {
        "measured": measured,
        "paper": target.paper_value,
        "error": abs(measured - target.paper_value) / target.paper_value,
    }


# ----------------------------------------------------------------------
# publish_retrieve
# ----------------------------------------------------------------------


class _OperationRecorder:
    """Times ``IpfsNode.publish``/``retrieve`` and checks each
    retrieval's bytes against what the publisher imported."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.publish_ms: list[float] = []
        self.retrieve_ms: list[float] = []
        self.payload_sha: dict = {}
        self.verified = 0
        self.mismatched = 0

    @contextmanager
    def installed(self) -> Iterator[None]:
        patcher = Patcher()
        add_bytes = IpfsNode.add_bytes
        publish = IpfsNode.publish
        retrieve = IpfsNode.retrieve
        recorder = self
        clock = self.clock

        def recorded_add_bytes(node, data, pin=True):
            result = add_bytes(node, data, pin)
            recorder.payload_sha[result.root] = hashlib.sha256(data).digest()
            return result

        def timed_publish(node, cid):
            started = clock()
            receipt = yield from publish(node, cid)
            recorder.publish_ms.append((clock() - started) * 1e3)
            return receipt

        def timed_retrieve(node, cid, recursive=True):
            started = clock()
            receipt = yield from retrieve(node, cid, recursive)
            recorder.retrieve_ms.append((clock() - started) * 1e3)
            if hashlib.sha256(node.cat(cid)).digest() == recorder.payload_sha.get(cid):
                recorder.verified += 1
            else:
                recorder.mismatched += 1
            return receipt

        patcher.patch(IpfsNode, "add_bytes", recorded_add_bytes)
        patcher.patch(IpfsNode, "publish", timed_publish)
        patcher.patch(IpfsNode, "retrieve", timed_retrieve)
        try:
            yield
        finally:
            patcher.restore()


@dataclass(frozen=True)
class PublishRetrieve:
    n_peers: int = 3000
    #: publications per region per unit (each followed by five retrievals)
    rounds: int = 3

    def config(self) -> dict:
        return {"n_peers": self.n_peers, "rounds": self.rounds,
                "regions": list(AWS_REGIONS), "with_churn": True,
                "loop": "closed, one operation in flight"}

    def run_unit(self, seed: int, tracer: Tracer | None = None) -> UnitResult:
        gauge = _gauge(tracer)
        rss_before = _current_rss_bytes()
        with gauge.section() as setup:
            with _span(tracer, "workloads.gen"):
                population = generate_population(
                    PopulationConfig(n_peers=self.n_peers),
                    derive_rng(seed, "perfbench-population"),
                )
            with _span(tracer, "world.build"):
                scenario = build_scenario(
                    population, ScenarioConfig(seed=seed), vantage_regions=list(AWS_REGIONS)
                )
        # No program counter sizes a materialized world; resident growth
        # over the build does, in the first unit of a process.
        bytes_per_peer = (_current_rss_bytes() - rss_before) / self.n_peers

        recorder = _OperationRecorder(gauge.now)
        config = PerfConfig(rounds=self.rounds, seed=seed)
        with recorder.installed():
            with gauge.section() as work:
                with _span(tracer, "other.experiment"):
                    results = run_perf_experiment(scenario, config)

        publications = results.all_publications()
        retrievals = results.all_retrievals()
        attempted = self.rounds * len(config.regions) + (len(config.regions) - 1) * len(
            publications
        )
        completed = len(publications) + len(retrievals)
        checks = []
        if completed + results.failures != attempted:
            checks.append(
                f"publish_retrieve: {completed} completed + {results.failures} failed "
                f"!= {attempted} attempted"
            )
        if recorder.mismatched or recorder.verified != len(retrievals):
            checks.append(
                f"publish_retrieve: {recorder.mismatched} retrievals returned other bytes "
                f"than published; {recorder.verified}/{len(retrievals)} verified"
            )
        sim_outputs = (
            [(region, r.total_duration, r.walk_duration, r.rpc_batch_duration,
              r.peers_stored, r.peers_targeted, r.walk_rpcs)
             for region, rs in sorted(results.publications.items()) for r in rs],
            [(region, r.total_duration, r.bitswap_window, r.provider_walk_duration,
              r.peer_walk_duration, r.dial_duration, r.fetch_duration, r.bytes_fetched)
             for region, rs in sorted(results.retrievals.items()) for r in rs],
            results.failures, scenario.sim.events_processed, scenario.sim.now,
        )
        fidelity = {}
        if publications and retrievals:
            fidelity = {
                "perf.publication_p50_s": _fidelity(
                    "perf.publication_p50_s",
                    percentiles([r.total_duration for r in publications], [50])[0]),
                "perf.retrieval_p50_s": _fidelity(
                    "perf.retrieval_p50_s",
                    percentiles([r.total_duration for r in retrievals], [50])[0]),
            }
        return UnitResult(
            **_timings(setup.scaled(), work.scaled(), setup=setup, work=work),
            completed=completed,
            attempted=attempted,
            failed=results.failures,
            digest=_digest(*sim_outputs),
            check_failures=checks,
            latencies_ms={"publish": recorder.publish_ms, "retrieve": recorder.retrieve_ms},
            fidelity=fidelity,
            counters={
                "events": scenario.sim.events_processed,
                "materialized": len(scenario.backdrop) + len(scenario.vantage),
                "bytes_per_peer": bytes_per_peer,
            },
        )


# ----------------------------------------------------------------------
# crawl_churn
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrawlChurn:
    n_peers: int = 1000
    duration_s: float = 2400.0
    probe_sample: float = 0.4

    def scale_config(self, seed: int) -> ScaleCrawlConfig:
        return ScaleCrawlConfig(
            n_peers=self.n_peers, seed=seed, workers=1, duration_s=self.duration_s,
            probe_sample=self.probe_sample, campaign_seed=seed,
        )

    def config(self) -> dict:
        c = self.scale_config(0)
        return {"n_peers": c.n_peers, "duration_s": c.duration_s,
                "crawl_interval_s": c.crawl_interval_s, "bucket_queries": c.bucket_queries,
                "probe_sample": c.probe_sample, "workers": c.workers}

    def run_unit(self, seed: int, tracer: Tracer | None = None) -> UnitResult:
        config = self.scale_config(seed)
        gauge = _gauge(tracer)
        with gauge.section() as setup:
            with _span(tracer, "workloads.gen"):
                compact = generate_compact_population(
                    PopulationConfig(n_peers=config.n_peers),
                    derive_rng(seed, "perfbench-population"),
                )
            with _span(tracer, "world.build"):
                world = build_compact_world(
                    compact, ScenarioConfig(seed=seed), workers=config.workers,
                    churn_horizon_s=config.duration_s + 2 * config.crawl_interval_s,
                )

        with gauge.section() as work:
            with _span(tracer, "other.campaign"):
                results = run_crawl_timeseries(world, config.campaign())

        timeseries = results.timeseries()
        visits = sum(total for _, total, _, _ in timeseries)
        checks = []
        if not timeseries:
            checks.append("crawl_churn: the campaign ran no crawl")
        partial = [total for _, total, _, _ in timeseries if total != config.n_peers]
        if partial:
            checks.append(
                f"crawl_churn: crawls saw {partial} peers, not the whole "
                f"world of {config.n_peers}"
            )
        summary = results.churn_summary() if results.sessions else None
        claims = {claim.key: claim for claim in grade_scale_results(config, results)} if (
            timeseries and summary is not None) else {}
        fidelity = {}
        for claim_key, target_key in (("scale.undialable_fraction", "peer.undialable_fraction"),
                                      ("scale.session_under_8h", "peer.session_under_8h")):
            if claim_key in claims:
                fidelity[target_key] = _fidelity(target_key, claims[claim_key].measured)
        return UnitResult(
            **_timings(setup.scaled(), work.scaled(), setup=setup, work=work),
            completed=visits,
            attempted=visits,
            failed=0,
            digest=_digest(timeseries, summary, sorted(
                (str(peer), uptime) for peer, uptime in results.uptime_by_peer.items()),
                world.sim.events_processed, world.materialized),
            check_failures=checks,
            fidelity=fidelity,
            counters={
                "events": world.sim.events_processed,
                "materialized": world.materialized,
                "bytes_per_peer": world.nbytes() / config.n_peers,
                "crawls": len(timeseries),
            },
        )


# ----------------------------------------------------------------------
# gateway_replay
# ----------------------------------------------------------------------


#: trace generations a gateway_replay unit times as its set-up
TRACE_SETUPS = 5


@dataclass(frozen=True)
class GatewayReplay:
    #: the paper's 7.1 M-request day divided by this
    trace_scale: int = 2000

    def replay_config(self, seed: int) -> ReplayConfig:
        return ReplayConfig(
            seed=seed, trace=GatewayTraceConfig(scale=self.trace_scale), miss_backend="fleet"
        )

    def config(self) -> dict:
        c = self.replay_config(0)
        return {"trace_scale": self.trace_scale, "n_requests": c.trace.n_requests,
                "miss_backend": c.miss_backend,
                "cache_fraction_of_corpus": c.cache_fraction_of_corpus,
                "window_s": c.window_s, "loop": "open, trace arrival times (simulated)"}

    def run_unit(self, seed: int, tracer: Tracer | None = None) -> UnitResult:
        config = self.replay_config(seed)
        gauge = _gauge(tracer)
        # The set-up is run_replay's first stage, trace generation. One
        # takes about 25 ms, too short to time steadily, so the unit first
        # makes the same trace TRACE_SETUPS times and keeps the median.
        # (These calls bypass the tracer, which wraps run_replay's own.)
        setups = []
        for _ in range(TRACE_SETUPS):
            with gauge.section() as setup:
                generate_columnar_trace(config.trace, derive_rng(config.seed, "trace"))
            setups.append(setup)
        with gauge.section() as replay:
            with _span(tracer, "gateway.replay"):
                result = run_replay(config, workers=1)
        # run_replay times its own trace generation; the rest is the work.
        generate_s = result.timings["generate_s"]
        tiers = result.tier_counts
        checks = []
        if result.n_requests != config.trace.n_requests:
            checks.append(
                f"gateway_replay: replayed {result.n_requests} of "
                f"{config.trace.n_requests} requests")
        if sum(tiers.values()) != result.n_requests:
            checks.append(
                f"gateway_replay: tier counts {tiers} do not sum to {result.n_requests}")
        if sum(w.requests for w in result.windows) != result.n_requests:
            checks.append("gateway_replay: window counts do not sum to the request count")
        misses = tiers["non_cached"] + tiers["shed"]
        totals = result.overload_totals
        return UnitResult(
            **_timings(statistics.median(setup.scaled() for setup in setups),
                       replay.scaled(replay.host_s - generate_s),
                       **{f"setup{i}": setup for i, setup in enumerate(setups)}, replay=replay),
            completed=result.n_requests,
            attempted=result.n_requests,
            failed=tiers["shed"],
            digest=_digest(
                sorted(tiers.items()), [tuple(vars(w).values()) for w in result.windows],
                sorted(totals.items()), result.failovers, result.marked_offline,
                result.down_errors, result.node_store_latencies.tobytes(),
                result.non_cached_latencies.tobytes()),
            check_failures=checks,
            fidelity={
                "gateway.nginx_request_share": _fidelity(
                    "gateway.nginx_request_share", result.nginx_share),
                "gateway.node_store_request_share": _fidelity(
                    "gateway.node_store_request_share", result.node_store_share),
            },
            counters={
                "gateway.misses": misses,
                "gateway.upstream_launches": totals.get("single_flights", 0),
                "gateway.coalesced_joins": totals.get("coalesced_joins", 0),
                "gateway.shed": tiers["shed"],
            },
        )


WORKLOADS = {
    "publish_retrieve": PublishRetrieve,
    "crawl_churn": CrawlChurn,
    "gateway_replay": GatewayReplay,
}
