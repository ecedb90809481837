"""The population generator's output, pinned by sha256.

:func:`repro.workloads.population.generate_compact_population` is the
only population generator; :func:`~repro.workloads.population.
generate_population` is its object view. The sha256 constants below
were computed from the earlier per-peer object generator, so every
figure built on a seeded population still sees the population it
always saw: peers (every ``PeerSpec`` field) and the geo/cloud
registries, contents and insertion order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.utils.rng import derive_rng
from repro.workloads.population import (
    PopulationConfig,
    generate_compact_population,
    generate_population,
)

N_PEERS = 400

#: seed -> (sha256 of the peer specs, sha256 of the registries) of the
#: 400-peer population.
POPULATION_SHA256 = {
    42: (
        "7bbc2cc6e3e4409510ff35dbaa9d02932350a29cb5d2e3a6cc832996d845812e",
        "74ba8926818d4eb9218d536ea111545b067eb007db597b03dcbadf51a38f2c32",
    ),
    7: (
        "cc8bcfda737bf199077055d8cbc50c5b71d9e5633bae09cd7c062412ef9c7d30",
        "7abd923d63566c9b506805e5459dff4de22071c376987f9aeecb26b445f20303",
    ),
    20260808: (
        "a556db5de14457e6e23457aae7aee41fb99f2e694dc8f5f9e88d7c19f8ae95e0",
        "667106e4b1a341e22db3a80b998762d7eeafa6b75ee44f785396f4eb2f74bfa5",
    ),
}


def peers_sha256(specs) -> str:
    digest = hashlib.sha256()
    for spec in specs:
        line = "%d|%s|%s|%s|%s|%d|%s|%s|%s|%s|%r|%s\n" % (
            spec.index, spec.peer_id, ",".join(spec.ips), spec.country,
            ",".join(spec.countries), spec.asn, spec.region.name,
            spec.cloud_provider, spec.reachability, spec.peer_class.name,
            spec.churn_model.median_session_s, spec.agent_version,
        )
        digest.update(line.encode())
    return digest.hexdigest()


def registries_sha256(population) -> str:
    # The dataclass reprs list every entry in insertion order.
    text = "%r|%r" % (population.geo, population.clouds)
    return hashlib.sha256(text.encode()).hexdigest()


def _compact(seed: int, n_peers: int = N_PEERS):
    return generate_compact_population(
        PopulationConfig(n_peers=n_peers), derive_rng(seed, "population")
    )


@pytest.mark.parametrize("seed", [42, 7, 20260808])
def test_per_peer_attributes_match(seed):
    """generate_population matches its pins, and the per-peer accessors
    read the same columns the pinned specs came from."""
    population = generate_population(
        PopulationConfig(n_peers=N_PEERS), derive_rng(seed, "population")
    )
    assert peers_sha256(population.peers) == POPULATION_SHA256[seed][0]
    assert registries_sha256(population) == POPULATION_SHA256[seed][1]
    compact = _compact(seed)
    assert len(compact) == len(population.peers)
    for spec in population.peers:
        i = spec.index
        assert compact.peer_id_at(i) == spec.peer_id
        assert compact.country_at(i) == spec.country
        assert compact.region_at(i) == spec.region
        assert compact.reachability_at(i) == spec.reachability
        assert compact.peer_class_at(i) == spec.peer_class
        assert compact.agent_at(i) == spec.agent_version
        assert compact.churn_model_at(i) == spec.churn_model
        assert compact.ips_at(i) == spec.ips
        assert compact.cloud_at(i) == spec.cloud_provider


@pytest.mark.parametrize("seed", [42, 7])
def test_spec_at_round_trip(seed):
    """Lazy per-peer specs do not depend on materialization order."""
    compact = _compact(seed)
    specs = [compact.spec_at(i) for i in reversed(range(len(compact)))]
    assert peers_sha256(reversed(specs)) == POPULATION_SHA256[seed][0]


def test_to_population_matches_legacy():
    population = _compact(42).to_population()
    assert peers_sha256(population.peers) == POPULATION_SHA256[42][0]
    assert registries_sha256(population) == POPULATION_SHA256[42][1]
    assert population.peer_ips() == {
        spec.peer_id: spec.ips for spec in population.peers
    }
    ips = population.all_ips()
    assert len(ips) == len(set(ips))
    assert set(ips) == {ip for spec in population.peers for ip in spec.ips}


def test_compact_is_actually_compact():
    compact = _compact(42, n_peers=2000)
    # The whole point: tens of bytes per peer in arrays (peer ids and
    # specs materialize lazily), versus ~kilobytes of objects.
    assert compact.nbytes() / len(compact) < 200
