"""The differential harness: compact worlds == object worlds.

``build_compact_world`` promises to build *the same world*
``build_scenario`` builds — same routing tables, same address books,
same churn schedules, same protocol behavior — while holding peers as
array rows until protocol code touches them, for any worker count.
This suite is the proof:

- routing tables, pinned: both builders run the one table fill, so
  each world's per-node table layout is checked against a sha256
  computed from the earlier, separate per-builder fills;
- structural equality, unmaterialized: bootstrap set, online flags,
  and per-peer routing-table membership straight from the flat arrays;
- structural equality, materialized: force every peer into existence
  and compare the real ``RoutingTable``/``SimHost`` object graphs
  attribute by attribute (bucket layouts included);
- behavioral equality: run churn on both kernels and compare the full
  ``(time, peer, online)`` transition logs;
- protocol byte-identity: drive the actual crawler + prober campaign
  over object and compact worlds and compare exported trace digests
  against a pinned golden hash — one constant guards both the compact
  path and the shard-tagged kernel for every worker count.

Regenerate GOLDEN_CRAWL_TRACE_SHA256 with:

    PYTHONPATH=src python -m tests.simnet.test_compact_equivalence
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.deployment import CrawlCampaignConfig, run_crawl_timeseries
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.obs import Observability
from repro.simnet.compact import build_compact_world
from repro.tools.export import export_trace
from repro.utils.rng import derive_rng
from repro.workloads.population import (
    PopulationConfig,
    generate_compact_population,
    generate_population,
)

N_PEERS = 300
SEED = 42
WORKER_COUNTS = (1, 2, 4)

#: sha256 of the exported event trace of a 1 h crawl+probe campaign
#: over the 300-peer seed-42 world. The object scenario and the compact
#: world must both produce exactly this file, for every worker count.
GOLDEN_CRAWL_TRACE_SHA256 = (
    "934037dc54cd32f2de0d9d3dddeae0ebb821c364f20ffb1d7f2bfb4da1c25a4e"
)


#: The harness's scenario variants.
CONFIGS = {
    "default": ScenarioConfig(seed=SEED),
    "no-churn": ScenarioConfig(seed=SEED, with_churn=False),
    "no-nat-servers": ScenarioConfig(seed=SEED, nat_peers_in_dht=False),
}

#: sha256 of every node's routing-table layout (bucket sizes, then
#: entries in bucket/insertion order, node by node) in the 300-peer
#: seed-42 world, per variant.
TABLE_LAYOUT_SHA256 = {
    "default": (
        "3f4aa6df41de6fdfc92288d6190ed9c604ea80d6fc80d39d8e41dad0db96bfdc"
    ),
    "no-churn": (
        "328ad2821875e90a1a9282d7bba289f46f3fd8f9a10bebb148a9b4550e3127a8"
    ),
    "no-nat-servers": (
        "3f0b939400aabd9cea4ff7c4504593ce39e720166f8985da3f034da64b9febec"
    ),
}


def _populations(n_peers: int = N_PEERS, seed: int = SEED):
    config = PopulationConfig(n_peers=n_peers)
    objects = generate_population(config, derive_rng(seed, "population"))
    compact = generate_compact_population(config, derive_rng(seed, "population"))
    return objects, compact


def table_layout_sha256(nodes) -> str:
    digest = hashlib.sha256()
    for node in nodes:
        table = node.routing_table
        digest.update(("%s|%r|%s\n" % (
            node.host.peer_id, sorted(table.bucket_sizes().items()),
            ",".join(map(str, table.peers())),
        )).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def populations():
    return _populations()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("variant", list(CONFIGS))
def test_structural_equality(populations, variant, workers):
    object_pop, compact_pop = populations
    config = CONFIGS[variant]
    scenario = build_scenario(object_pop, config)
    world = build_compact_world(compact_pop, config, workers=workers)
    assert table_layout_sha256(scenario.backdrop) == TABLE_LAYOUT_SHA256[variant]

    assert world.bootstrap_ids == scenario.bootstrap_ids
    assert world.materialized == 0, "building must not materialize anyone"

    # Unmaterialized: flags and table membership read from the arrays.
    for node in scenario.backdrop:
        i = world.index_of(node.host.peer_id)
        assert world.online_at(i) == node.host.online
        assert sorted(world.table_peer_ids(i)) == sorted(
            node.routing_table.peers()
        )

    # Materialized: identical object graphs, bucket layouts included.
    world.materialize_all()
    assert table_layout_sha256(
        world.node_at(i) for i in range(len(world))
    ) == TABLE_LAYOUT_SHA256[variant]
    for node in scenario.backdrop:
        i = world.index_of(node.host.peer_id)
        mat = world.node_at(i)
        assert mat.routing_table.peers() == node.routing_table.peers()
        assert (
            mat.routing_table.bucket_sizes()
            == node.routing_table.bucket_sizes()
        )
        host, object_host = mat.host, node.host
        assert host.peer_id == object_host.peer_id
        assert host.online == object_host.online
        assert host.transports == object_host.transports
        assert host.nat_private == object_host.nat_private
        assert host.agent_version == object_host.agent_version
        assert mat.server == node.server


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_churn_transition_logs_identical(populations, workers):
    """Run six simulated hours of churn on both kernels and compare
    every (time, peer, online) transition."""
    object_pop, compact_pop = populations
    config = ScenarioConfig(seed=SEED)
    scenario = build_scenario(object_pop, config)
    world = build_compact_world(compact_pop, config, workers=workers)
    world.materialize_all()

    logs = []
    for hosts, sim in (
        ([node.host for node in scenario.backdrop], scenario.sim),
        ([world.host_at(i) for i in range(N_PEERS)], world.sim),
    ):
        log: list[tuple[float, int, bool]] = []
        for index, host in enumerate(hosts):
            host.on_status_change.append(
                lambda online, index=index, log=log, sim=sim: log.append(
                    (sim.now, index, online)
                )
            )
        sim.run(until=6 * 3600.0)
        logs.append(log)
    assert logs[0], "six hours of churn must produce transitions"
    assert logs[0] == logs[1]


def _campaign_digest(world) -> tuple[str, object]:
    obs = Observability()
    world.net.install_observability(obs)
    results = run_crawl_timeseries(
        world, CrawlCampaignConfig(duration_s=3600.0)
    )
    path = "/tmp/compact-equivalence-trace.jsonl"
    export_trace(obs.tracer, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest(), results


def test_protocol_run_byte_identical(populations):
    """The pinned golden trace: object and compact (all worker counts)
    run the crawler campaign to the byte-identical event trace."""
    object_pop, compact_pop = populations
    digests = {}
    scenario = build_scenario(object_pop, ScenarioConfig(seed=SEED))
    digests["objects"], object_results = _campaign_digest(scenario)
    for workers in WORKER_COUNTS:
        world = build_compact_world(
            compact_pop, ScenarioConfig(seed=SEED), workers=workers
        )
        digests[f"compact-w{workers}"], results = _campaign_digest(world)
        assert results.timeseries() == object_results.timeseries()
        assert results.sessions == object_results.sessions
        assert results.uptime_by_peer == object_results.uptime_by_peer
    assert digests == {
        name: GOLDEN_CRAWL_TRACE_SHA256 for name in digests
    }, f"trace digests diverged: {digests}"


if __name__ == "__main__":
    object_pop, _ = _populations()
    scenario = build_scenario(object_pop, ScenarioConfig(seed=SEED))
    digest, _ = _campaign_digest(scenario)
    print(f"GOLDEN_CRAWL_TRACE_SHA256 = \"{digest}\"")
