"""Gateway trace generator: the request stream, pinned by sha256.

:func:`generate_columnar_trace` is the only trace generator; it holds
the day as parallel arrays so the full 7.1 M-request day fits in
memory, and :func:`generate_gateway_trace` is its object view. The
sha256 constants below were computed from the earlier per-request
object generator over a canonical per-request serialization, so every
consumer downstream of the generator — tier resolution, grading,
golden artifacts — sees exactly the trace it always saw.
"""

import pytest

from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import (
    GatewayTraceConfig,
    generate_columnar_trace,
    generate_gateway_trace,
    trace_stream_sha256,
)

SCALE = 1000

#: seed -> trace_stream_sha256 of the scale-1000 day.
TRACE_SHA256 = {
    42: "0958f820ca785deefaa8e509390b1ddf7a9fcf1acfb420511f703ba318eb7a19",
    7: "973a417ee450809e9f48323426f300d8af7a57c8eb5d1bb038b4d7042be017ce",
}

#: (users, unique CIDs, total bytes) of the scale-1000 seed-42 day.
SEED42_AGGREGATES = (101, 259, 6_541_011_175)


@pytest.fixture(scope="module")
def config():
    return GatewayTraceConfig(scale=SCALE)


@pytest.fixture(scope="module")
def objects(config):
    """The object view of the seed-42 day."""
    return generate_gateway_trace(config, derive_rng(42, "trace"))


@pytest.fixture(scope="module")
def columnar(config):
    return generate_columnar_trace(config, derive_rng(42, "trace"))


class TestByteIdentity:
    def test_same_seed_same_sha256(self, columnar):
        assert trace_stream_sha256(columnar.iter_requests()) == TRACE_SHA256[42]

    def test_different_seed_differs(self, config):
        other = generate_columnar_trace(config, derive_rng(43, "trace"))
        assert trace_stream_sha256(other.iter_requests()) not in (
            TRACE_SHA256.values()
        )

    def test_requests_field_equal(self, objects, columnar):
        assert trace_stream_sha256(objects.requests) == TRACE_SHA256[42]
        for got, want in zip(columnar.iter_requests(), objects.requests):
            assert got == want

    def test_to_gateway_trace_round_trip(self, objects, columnar):
        rebuilt = columnar.to_gateway_trace()
        assert trace_stream_sha256(rebuilt.requests) == TRACE_SHA256[42]
        assert rebuilt == objects


class TestAggregates:
    def test_counts_match_legacy(self, objects, columnar):
        """The array aggregates agree with the object view's scans and
        with the pinned day."""
        assert len(columnar) == len(objects.requests)
        aggregates = (columnar.user_count, columnar.cid_count, columnar.total_bytes)
        assert aggregates == SEED42_AGGREGATES
        assert aggregates == (
            len(objects.users()), len(objects.unique_cids()), objects.total_bytes()
        )

    def test_pinned_cids_match(self, objects, columnar):
        assert columnar.pinned_cids == set(range(columnar.n_pinned))
        assert columnar.pinned_cids == objects.pinned_cids
        assert all(
            request.pinned == (request.cid_index in objects.pinned_cids)
            for request in objects.requests
        )

    def test_timestamps_sorted(self, columnar):
        ts = columnar.timestamps
        assert all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))


class TestGatewayTraceCaching:
    """Regression: users()/unique_cids()/total_bytes() used to rescan
    all n requests on every call — O(n) per call, called in loops."""

    def test_computed_once(self, config):
        trace = generate_gateway_trace(config, derive_rng(7, "trace"))
        first = trace.users()
        assert trace.users() is first  # cached object, not a rescan
        assert trace.unique_cids() is trace.unique_cids()
        assert trace.total_bytes() == trace.total_bytes()

    def test_cached_values_correct(self, config):
        trace = generate_gateway_trace(config, derive_rng(7, "trace"))
        assert trace_stream_sha256(trace.requests) == TRACE_SHA256[7]
        assert trace.users() == {r.user for r in trace.requests}
        assert trace.unique_cids() == {r.cid_index for r in trace.requests}
        assert trace.total_bytes() == sum(r.size for r in trace.requests)

    def test_caches_do_not_affect_equality(self, config):
        """Regression: the cache fields took part in ``==``, so a trace
        that had called users() compared unequal to an identical one."""
        warm = generate_gateway_trace(config, derive_rng(7, "trace"))
        cold = generate_gateway_trace(config, derive_rng(7, "trace"))
        warm.users()
        warm.unique_cids()
        warm.total_bytes()
        assert warm == cold
        assert cold == warm
