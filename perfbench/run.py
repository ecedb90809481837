"""The reproduction's benchmark.

    python3 perfbench/run.py --workload publish_retrieve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A run repeats units of work on seeds derived from ``--seed`` until
``--seconds`` have passed (at least ``MIN_UNITS`` units). Each unit runs
in a fresh Python process, as a user's rerun of an experiment does, so
no unit inherits another's heap. Times are host seconds scaled to a
nominal host speed by ``gauge.py``. Every unit's outputs are checked. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A traced run runs each unit
twice on the same seed, untraced and then traced, so it also measures
the tracing overhead and checks that tracing leaves the simulation
unchanged. Every run writes its full result document (run record,
per-unit numbers, workload-specific metrics, fidelity, digests) to
``perfbench/out/``; a traced run also writes the spans of its first
traced unit there. ``--workload all`` runs each workload in turn.

Exit status: 0 when every check passed, 1 when one failed (the failed
checks go to stderr), 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("publish_retrieve", "crawl_churn", "gateway_replay")

#: fewest units a run makes, untraced / traced (a traced unit is a pair)
MIN_UNITS = {False: 3, True: 1}

#: end-to-end metrics: name -> unit (``--trace 0`` prints these)
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics: name -> unit (``--trace 1`` prints these)
PER_LAYER = {
    "kernel.events": "count", "kernel.self_s": "s", "kernel.self_us_per_event": "us",
    "net.dials": "count", "net.dial_fail_share": "ratio", "net.rpcs": "count",
    "net.rpc_ok_share": "ratio", "net.bytes": "bytes", "net.self_s": "s",
    "dht.closest_calls": "count", "dht.closest_self_s": "s", "dht.table_adds": "count",
    "dht.fill_s": "s", "dht.route_self_s": "s",
    "dht.walks": "count", "dht.walk_rpcs_per_walk": "count", "dht.walk_rpc_ok_share": "ratio",
    "dht.walk_self_s": "s", "dht.provide_stored_share": "ratio",
    "bitswap.blocks": "count", "bitswap.bytes": "bytes", "bitswap.self_s": "s",
    "dag.add_s": "s", "dag.cat_s": "s", "dag.self_s": "s",
    "world.build_s": "s", "world.materialized": "count", "world.bytes_per_peer": "B/peer",
    "world.self_s": "s", "workloads.gen_s": "s",
    "crawler.visits": "count", "crawler.self_s": "s", "prober.probes": "count",
    "gateway.resolve_s": "s", "gateway.misses": "count", "gateway.upstream_launches": "count",
    "gateway.coalesced_join_share": "ratio", "gateway.shed_share": "ratio",
    "gateway.self_s": "s", "node.self_s": "s", "other.self_s": "s",
    "trace.spans": "count", "trace.overhead": "ratio",
}

#: workload-specific end-to-end metrics, in the result document only:
#: a gated metric must exist, and be nonzero, on every workload.
DETAIL_UNITS = {
    "publish_ms_p50": "ms", "publish_ms_p90": "ms", "retrieve_ms_p50": "ms",
    "retrieve_ms_p95": "ms", "fail_share": "ratio", "fidelity_err": "ratio",
}


def unit_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th unit."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile_with_support(samples: list[float], q: int) -> tuple[float, int] | None:
    """(value, samples beyond it), or None when fewer than ten lie beyond."""
    from repro.utils.stats import percentiles

    beyond = len(samples) - 1 - int((len(samples) - 1) * q / 100.0)
    if beyond < 10:
        return None
    return percentiles(samples, [q])[0], beyond


def git_revision() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's sources, so a record names the code
    even in a checkout that is not a git repository."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# one unit, in its own process
# ----------------------------------------------------------------------


def make_workload(name: str, params: dict):
    from workloads import WORKLOADS

    return WORKLOADS[name](**params)


def unit_main(args) -> int:
    """Run one unit and print it as JSON (the child side of ``run_unit``)."""
    workload = make_workload(args.workload, json.loads(args.params))
    payload: dict = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            unit = workload.run_unit(args.unit_seed, tracer)
        payload["layers"], payload["ratio_bases"] = tracer.layer_metrics(unit.counters)
        if args.spans:
            tracer.spans.write(args.spans)
    else:
        unit = workload.run_unit(args.unit_seed)
    payload["unit"] = asdict(unit)
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(payload))
    return 0


def run_unit(name: str, params: dict, seed: int, traced: bool,
             spans: Path | None = None) -> dict:
    """Run one unit in a fresh interpreter and return its payload."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--unit-seed", str(seed), "--params", json.dumps(params),
               "--trace", str(int(traced))]
    if spans is not None:
        command += ["--spans", str(spans)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"unit process for seed {seed} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# a run: units until the time is up, then the metrics
# ----------------------------------------------------------------------


def end_to_end(payloads: list[dict]) -> dict[str, float]:
    units = [p["unit"] for p in payloads]
    return {
        "ops_per_s": statistics.median(u["completed"] / u["work_s"] for u in units),
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in payloads),
    }


def detail_metrics(units: list[dict]) -> tuple[dict[str, float], dict[str, dict]]:
    """Workload-specific metrics and the samples behind each."""
    metrics: dict[str, float] = {}
    support: dict[str, dict] = {}
    for kind, qs in (("publish", (50, 90)), ("retrieve", (50, 95))):
        samples = [ms for u in units for ms in u["latencies_ms"].get(kind, ())]
        for q in qs:
            found = percentile_with_support(samples, q)
            if found is not None:
                name = f"{kind}_ms_p{q}"
                metrics[name] = found[0]
                support[name] = {"samples": len(samples), "beyond": found[1]}
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    metrics["fail_share"] = failed / attempted
    support["fail_share"] = {"failed": failed, "attempted": attempted}
    # The simulator is deterministic: the first unit's fidelity is a
    # function of the run's seed alone.
    first = units[0]["fidelity"]
    if first:
        metrics["fidelity_err"] = max(row["error"] for row in first.values())
        support["fidelity_err"] = first
    return metrics, support


def measure(name: str, params: dict, seed: int, seconds: float, traced: bool,
            spans: Path | None = None) -> tuple[dict, dict]:
    """Run units of workload ``name`` for about ``seconds``; returns the
    result document and the result line. A traced run writes the spans
    of its first traced unit to ``spans``."""
    phases: dict[str, float] = {}
    began = time.perf_counter()
    untraced, traced_payloads, unit_rows = [], [], []
    checks: list[str] = []
    index = 0
    while True:
        seed_i = unit_seed(seed, index)
        unit_began = time.perf_counter()
        payload = run_unit(name, params, seed_i, traced=False)
        untraced.append(payload)
        unit = payload["unit"]
        checks.extend(f"unit {index}: {c}" for c in unit["check_failures"])
        row = {"seed": seed_i, "setup_s": unit["setup_s"], "work_s": unit["work_s"],
               "completed": unit["completed"], "failed": unit["failed"],
               "peak_rss_mb": payload["peak_rss_mb"], "digest": unit["digest"],
               "counters": unit["counters"], "host_s": unit["host_s"],
               "slowdown": unit["slowdown"]}
        if traced:
            traced_payload = run_unit(name, params, seed_i, traced=True,
                                      spans=spans if index == 0 else None)
            traced_payloads.append(traced_payload)
            if traced_payload["unit"]["digest"] != unit["digest"]:
                checks.append(f"unit {index}: tracing changed the simulated outputs")
            row["traced_work_s"] = traced_payload["unit"]["work_s"]
        unit_rows.append(row)
        index += 1
        now = time.perf_counter()
        phases[f"unit_{index - 1}_s"] = now - unit_began
        if index >= MIN_UNITS[traced] and now - began + (now - unit_began) > seconds:
            break
    phases["units_s"] = time.perf_counter() - began

    units = [p["unit"] for p in untraced]
    metrics, support = detail_metrics(units)
    workload = make_workload(name, params)
    document = {
        "workload": name,
        "record": {
            "seed": seed,
            "seconds": seconds,
            "trace": traced,
            "config": workload.config(),
            "unit_seeds": [row["seed"] for row in unit_rows],
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "argv": sys.argv,
            "phases_s": phases,
        },
        "correct": not checks,
        "check_failures": checks,
        "sim_digest": units[0]["digest"],
        "units": unit_rows,
        "end_to_end": {metric: {"value": value, "unit": END_TO_END[metric]}
                       for metric, value in end_to_end(untraced).items()},
        "detail": {metric: {"value": value, "unit": DETAIL_UNITS[metric],
                            "support": support.get(metric)}
                   for metric, value in metrics.items()},
    }
    if traced:
        layers = {metric: statistics.median(p["layers"][metric] for p in traced_payloads)
                  for metric in traced_payloads[0]["layers"]}
        untraced_rate = document["end_to_end"]["ops_per_s"]["value"]
        traced_rate = statistics.median(
            p["unit"]["completed"] / p["unit"]["work_s"] for p in traced_payloads)
        layers["trace.overhead"] = untraced_rate / traced_rate
        document["per_layer"] = {metric: {"value": layers[metric], "unit": unit}
                                 for metric, unit in PER_LAYER.items()}
        document["trace_overhead"] = {"untraced_ops_per_s": untraced_rate,
                                      "traced_ops_per_s": traced_rate}
        document["ratio_bases"] = traced_payloads[0]["ratio_bases"]

    result_line = {
        "correct": not checks,
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": document["per_layer"] if traced else document["end_to_end"],
    }
    return document, result_line


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}{'-trace' if traced else ''}"
    document, result_line = measure(
        name, {}, seed, seconds, traced, spans=OUT_DIR / f"{stem}-spans.csv.gz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(document, indent=2, sort_keys=True))

    shown = document["per_layer"] if traced else {**document["end_to_end"], **document["detail"]}
    for metric, row in shown.items():
        print(f"{name:17s} {metric:28s} {row['value']:14.6g} {row['unit']}", file=sys.stderr)
    print(f"{name:17s} sim_digest {document['sim_digest']}", file=sys.stderr)
    for check in document["check_failures"]:
        print(f"CHECK FAILED: {name}: {check}", file=sys.stderr)
    print(json.dumps(result_line), flush=True)
    return 0 if result_line["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the child side of one unit (see run_unit)
    parser.add_argument("--unit-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--params", default="{}", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.unit_seed is not None:
        return unit_main(args)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
