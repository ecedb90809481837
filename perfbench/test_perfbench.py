"""The benchmark's own tests, on tiny configurations.

    python -m pytest perfbench
"""

import gzip
import json
import signal
import time
from array import array

import pytest

import gauge
import run
import tracing
from repro.node.host import IpfsNode
from repro.simnet.sim import Future, Simulator
from workloads import WORKLOADS

TINY = {
    "publish_retrieve": {"n_peers": 150, "rounds": 3},
    # below ~200 peers a world can lack reliable bootstrap peers
    "crawl_churn": {"n_peers": 300, "duration_s": 1800.0},
    "gateway_replay": {"trace_scale": 20_000},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_traced_and_untraced(name):
    document, line = run.measure(name, TINY[name], seed=3, seconds=0.01, traced=False)
    assert line["correct"], document["check_failures"]
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(row["value"] > 0 for row in line["metrics"].values())
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {"fail_share", "fidelity_err"} <= set(document["detail"])
    if name == "publish_retrieve":
        # 3 units x 18 publishes / 90 retrieves: enough for both p50s and
        # the retrieve p95, too few for a publish p90 with ten beyond.
        assert {"publish_ms_p50", "retrieve_ms_p50", "retrieve_ms_p95"} <= set(
            document["detail"])
        assert "publish_ms_p90" not in document["detail"]
    for key in ("seed", "config", "git_revision", "source_sha256", "python",
                "platform", "nproc", "phases_s"):
        assert key in document["record"]

    run.OUT_DIR.mkdir(exist_ok=True)
    spans = run.OUT_DIR / f"test-{name}-spans.csv.gz"
    document, line = run.measure(name, TINY[name], seed=3, seconds=0.01, traced=True,
                                 spans=spans)
    assert line["correct"], document["check_failures"]  # includes traced == untraced digest
    assert set(line["metrics"]) == set(run.PER_LAYER)
    with gzip.open(spans, "rt") as lines:
        header = json.loads(next(lines))
        assert header["spans"] == line["metrics"]["trace.spans"]["value"] > 0
        assert sum(1 for _ in lines) == header["spans"]


def test_tracer_patches_are_removed():
    original_publish = IpfsNode.__dict__["publish"]
    original_schedule = Simulator.__dict__["schedule"]
    with tracing.Tracer().installed():
        assert IpfsNode.__dict__["publish"] is not original_publish
    assert IpfsNode.__dict__["publish"] is original_publish
    assert Simulator.__dict__["schedule"] is original_schedule


@pytest.mark.parametrize("name", sorted(TINY))
def test_sim_digest_follows_the_seed(name):
    workload = WORKLOADS[name](**TINY[name])
    first = workload.run_unit(11).digest
    assert workload.run_unit(11).digest == first
    assert workload.run_unit(12).digest != first


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4], c [3, 6] (overlapping a) and
    # b [5, 9]; b has a child d [6, 7]; e [9.5, 12] overhangs the root.
    spans = {
        "root": (0.0, 10.0, None),
        "a": (1.0, 4.0, "root"),
        "c": (3.0, 6.0, "root"),
        "b": (5.0, 9.0, "root"),
        "d": (6.0, 7.0, "b"),
        "e": (9.5, 12.0, "root"),
    }
    order = ["b", "root", "e", "a", "d", "c"]  # deliberately not in start order
    index = {name: i for i, name in enumerate(order)}
    starts = array("d", (spans[n][0] for n in order))
    ends = array("d", (spans[n][1] for n in order))
    parents = array("i", (index[spans[n][2]] if spans[n][2] else -1 for n in order))
    got = dict(zip(order, tracing.self_times(starts, ends, parents)))
    # children cover [1, 9] and [9.5, 10] of the root: 8.5 of its 10 s
    assert got == pytest.approx({"root": 1.5, "a": 3.0, "c": 3.0, "b": 3.0, "d": 1.0, "e": 2.5})


def test_spans_nest_and_attribute_callbacks_to_their_module():
    tracer = tracing.Tracer()
    with tracer.installed():
        sim = Simulator()
        future = Future()
        sim.schedule(1.0, lambda: future.resolve(7))

        def process():
            value = yield future
            return value

        assert sim.run_process(process()) == 7
    names = {tracer.spans.names[i] for i in tracer.spans.name_ids}
    assert "kernel.run" in names
    # the lambda and the generator are defined in this (non-program) module
    assert "other.cb" in names and "other.spawn" in names
    assert tracer.counts["kernel.events"] == 1
    rows = tracer.spans.by_name()
    total = sum(row["self_s"] for row in rows.values())
    roots = [i for i in range(len(tracer.spans)) if tracer.spans.parents[i] < 0]
    assert total == pytest.approx(
        sum(tracer.spans.ends[i] - tracer.spans.starts[i] for i in roots))


def test_unit_seeds_are_distinct_and_stable():
    seeds = [run.unit_seed(5, i) for i in range(4)]
    assert len(set(seeds)) == 4
    assert seeds == [run.unit_seed(5, i) for i in range(4)]
    assert run.unit_seed(6, 0) not in seeds


def test_gauge_scales_host_time_and_leaves_the_program_alone():
    gauge_ = gauge.Gauge()
    before = gauge_.now()
    with gauge_.section() as section:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(section.samples) >= 4  # both ends and the timer's
    assert 0.25 < section.host_s < 0.3 + 1e-3
    assert gauge_.now() - before >= section.host_s
    assert section.scaled() == pytest.approx(section.host_s / section.slowdown)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    untimed = gauge.Gauge(None)
    with untimed.section() as ends_only:
        pass
    assert len(ends_only.samples) == 2 and untimed.sampled_s == 0.0
