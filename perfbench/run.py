"""The repository's benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload population --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``population``   source text -> certified schedule, paper-simulation machine
``deep-search``  tuple text -> certified schedule, deep-memory machine
``service``      a ``repro serve --workers 1`` daemon, two client threads

With ``--trace 0`` the last line of standard output is one JSON object
whose ``metrics`` are the end-to-end metrics; with ``--trace 1`` they are
the per-layer metrics of a traced run.  Every published schedule is
certified: a wrong one, an error, or a native engine that fell back to
the Python one fails the run (``correct: false``, exit code 1).

The benchmark builds and loads the native kernel from source inside the
checkout (``.bench_build/repro-native``) and writes its run record and
spans to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from statistics import median
from typing import Dict, List, Optional

PRUNE_KINDS = ("legality", "bounds", "equivalence", "alpha_beta", "curtail", "timeout", "dominance")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("population", "deep-search", "service")
#: Set-up is measured this many times per run, at the reference speed
#: (:mod:`perfbench.speed`); the median is reported.
SETUP_REPEATS = 7
DAEMON_SPAWNS = 5
#: Reference-loop timings taken around each set-up measurement.
SETUP_REFERENCES = 5

#: The modules each workload calls into, imported by the set-up probe.
LAYER_MODULES = {
    "population": ["repro.frontend", "repro.opt", "repro.ir.dag", "repro.sched.search",
                   "repro.verify.certificate"],
    "deep-search": ["repro.ir.textual", "repro.ir.dag", "repro.sched.search",
                    "repro.verify.certificate"],
    "service": ["repro.service.client", "repro.verify.certificate"],
}

_SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import repro
{imports}
t1 = time.perf_counter()
from repro.native import load_kernel
load_kernel()
t2 = time.perf_counter()
from perfbench.speed import reference_loop
references = [reference_loop() for _ in range({references})]
print(json.dumps({{"import_s": t1 - t0, "load_s": t2 - t1, "references": references}}))
"""


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when it is empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def measure_setup(workload: str) -> Dict[str, float]:
    """Median import + ``load_kernel`` time over fresh interpreters, each
    at the reference speed of its interpreter."""
    from perfbench.speed import to_reference

    code = _SETUP_PROBE.format(
        imports="\n".join(f"import {m}" for m in LAYER_MODULES[workload]),
        references=SETUP_REFERENCES,
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        probe["scale"] = to_reference(probe["references"])
        runs.append(probe)
    return {
        "load_s": median(r["load_s"] * r["scale"] for r in runs),
        "setup_s": median((r["import_s"] + r["load_s"]) * r["scale"] for r in runs),
    }


def environment() -> Dict:
    """What a timing depends on, and which engine ran."""
    from repro.bench.hot_core import bench_environment
    from repro.native import native_available
    from repro.sched.core import resolve_engine

    env = bench_environment()
    env["native_available"] = native_available()
    env["engine"] = resolve_engine("native")
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


#: Largest share of the traced end-to-end time, timed outside the
#: tracer, that its root spans may leave uncovered: the tracer's own
#: bookkeeping around each root.
TRACER_SLACK = 0.02


def _layer_metrics(tracer, units: int, e2e_seconds: float) -> Dict[str, float]:
    """Self time per unit of work, per span name and per layer.

    ``e2e_seconds`` is the traced end-to-end time, timed outside the
    tracer.  ``<layer>.<name>_s`` is the self time of that span; a
    layer's total (``opt.s``) adds the self time of all its spans.
    ``unattributed_s`` is the end-to-end time no layer span covered; with
    the layer totals it sums to the end-to-end time per unit.  The root
    spans must cover the end-to-end time up to :data:`TRACER_SLACK`.
    """
    covered = tracer.root_seconds()
    if not 0.0 <= e2e_seconds - covered <= TRACER_SLACK * e2e_seconds:
        raise RuntimeError(
            f"the spans cover {covered:.6f}s of a traced end-to-end time of {e2e_seconds:.6f}s"
        )
    layers: Dict[str, float] = {}
    out: Dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        if name in tracer.roots:
            continue
        out[f"{name}_s"] = seconds / units
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    out["opt.s"] = layers.get("opt", 0.0) / units
    out["unattributed_s"] = (e2e_seconds - sum(layers.values())) / units
    return out


#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "blocks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "nops_total": "count",
    "optimal_frac": "ratio",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``).  Every workload reports all of
#: them; a layer the workload does not call reads 0.
PER_LAYER = (
    "frontend.parse_s", "frontend.lower_s", "frontend.tuples",
    "opt.s", "opt.fold_s", "opt.peephole_s", "opt.cse_s", "opt.dce_s",
    "opt.rounds", "opt.useful_round_frac", "opt.tuples_removed",
    "ir.parse_block_s", "ir.dag_s", "ir.dag_edges",
    "sched.price_s", "sched.list_seed_s", "sched.search_s", "sched.omega_calls",
    "sched.omega_per_s", "sched.root_proved_frac", "sched.curtailed",
    *(f"sched.prune.{kind}" for kind in PRUNE_KINDS),
    "verify.certify_s", "verify.certified",
    "native.load_s", "service.ready_s", "service.request_s",
    "service.batch_ms", "service.transport_ms", "service.fingerprint_s",
    "service.cache_hit_s", "service.cache_miss_s", "service.cache_hit_frac",
    "service.worker_retries", "service.degraded", "service.shed",
    "unattributed_s", "trace.overhead_blocks_per_s", "failed_frac",
)


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), (".s", "s"), ("_ms", "ms"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------
def run_blocks(workload: str, seed: int, seconds: float, trace: bool, setup: Dict):
    from perfbench import corpus
    from perfbench.blocks import BlockWorkload

    if workload == "population":
        items = corpus.population_corpus(seed)
    else:
        items = corpus.deep_search_corpus(seed)
    bench = BlockWorkload(workload, items)
    m = bench.measure(seconds, trace)
    failed = len(m.errors)
    counts = m.deterministic()
    untraced = m.block_times(traced=False)
    e2e = {
        "setup_s": setup["setup_s"],
        "blocks_per_s": len(untraced) / sum(untraced),
        "latency_p50_ms": _quantile(sorted(untraced), 0.50) * 1e3,
        "latency_p99_ms": _quantile(sorted(untraced), 0.99) * 1e3,
        "nops_total": counts["nops_total"],
        "optimal_frac": counts["optimal_frac"],
        "certified_frac": 1.0 - failed / m.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [min(s) for s in m.untraced]
    info = {"blocks": m.n, "passes": m.passes, "samples": len(untraced),
            "attempted": m.attempted, "errors": m.errors[:20],
            "reference_ms": median(m.references) * 1e3,
            "measured_blocks_per_s": len(raw) / sum(raw)}
    if not trace:
        return e2e, m.attempted, failed, info, None
    traced_times = m.block_times(traced=True)
    units = sum(len(s) for s in m.traced)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(_layer_metrics(bench.tracer, units, sum(sum(s) for s in m.traced)))
    layer.update(counts)
    search_s = layer["sched.search_s"] * units
    traced_omega = sum(m.first[i].omega_calls * len(s) for i, s in enumerate(m.traced))
    layer.update({
        "sched.omega_per_s": traced_omega / search_s if search_s else 0.0,
        "native.load_s": setup["load_s"],
        "trace.overhead_blocks_per_s": (
            len(traced_times) / sum(traced_times) - e2e["blocks_per_s"]
        ),
        "failed_frac": failed / m.attempted,
    })
    info["traced_samples"] = units
    return layer, m.attempted, failed, info, bench.tracer


def run_service(seed: int, seconds: float, trace: bool, setup: Dict, workdir: str):
    from perfbench import corpus
    from perfbench.service import COUNTED_REQUESTS, REPLAYED_REQUESTS, Daemon, drive, replay
    from perfbench.spans import Tracer
    from perfbench.speed import reference_loop, to_reference
    from repro.service.client import ServiceClient

    requests = corpus.service_requests(seed)
    ready, exit_codes = [], []
    for spawn in range(DAEMON_SPAWNS):
        references = [reference_loop() for _ in range(SETUP_REFERENCES)]
        daemon = Daemon(ROOT, workdir, f"service-{spawn}")
        try:
            url = daemon.wait_ready()
        except BaseException:
            daemon.stop()
            raise
        references += [reference_loop() for _ in range(SETUP_REFERENCES)]
        ready.append(daemon.ready_s * to_reference(references))
        if spawn < DAEMON_SPAWNS - 1:
            exit_codes.append(daemon.stop())
    tracer = Tracer(enabled=True)
    try:
        if not ServiceClient(url).health()["checks"]["engine"]:
            raise RuntimeError("the daemon's native engine fell back to fast")
        d = drive(url, requests, seconds, trace, tracer)
        daemon_rss = daemon.peak_rss_mb()
    finally:
        exit_codes.append(daemon.stop())
    errors = list(d.errors) + [
        f"daemon {k} did not drain cleanly (exit {code})"
        for k, code in enumerate(exit_codes)
        if code != 0
    ]
    attempted = d.sent
    failed = len(errors)
    counted = [d.replies[i] for i in range(min(COUNTED_REQUESTS, d.sent))]
    if len(counted) < COUNTED_REQUESTS or any(r is None for r in counted):
        errors.append("not every counted request was answered")
        failed += 1
    # Each distinct block counts once: the hot set would otherwise weigh
    # in once per request it appears in.
    published = {
        slot.name: entry
        for batch, reply in zip(requests, counted)
        if reply is not None
        for slot, entry in zip(batch, reply["entries"])
    }
    entries = list(published.values())
    answered = [r for r in d.replies if r is not None]
    blocks_per_s, untraced = d.rate(requests, traced=False)
    e2e = {
        "setup_s": setup["setup_s"] + median(ready),
        "blocks_per_s": blocks_per_s,
        "latency_p50_ms": _quantile(untraced, 0.50) * 1e3,
        "latency_p99_ms": _quantile(untraced, 0.99) * 1e3,
        "nops_total": sum(e["total_nops"] for e in entries),
        "optimal_frac": sum(e["completed"] for e in entries) / max(1, len(entries)),
        "certified_frac": 1.0 - failed / max(1, attempted),
        "peak_rss_mb": daemon_rss,
    }
    info = {"requests": len(requests), "sent": d.sent, "samples": len(untraced),
            "attempted": attempted, "errors": errors[:20],
            "reference_ms": median(d.references) * 1e3,
            "measured_blocks_per_s": sum(len(requests[i]) for i in range(d.sent) if d.replies[i])
            / sum(s.active_s for s in d.segments)}
    if not trace:
        return e2e, attempted, failed, info, None
    traced = [i for i in range(d.sent) if d.traced(i)]
    traced_units = len(traced)
    # A traced request's end-to-end time: its request and its certificate.
    traced_s = sum(d.latencies[i] + (d.certify_s[i] or 0.0) for i in traced)
    # The client p50 as measured, like ``service.batch_ms``: layer times
    # are not scaled to the reference speed.
    measured = sorted(
        d.latencies[i] for i in range(d.sent) if d.replies[i] is not None and not d.traced(i)
    )
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(_layer_metrics(tracer, traced_units, traced_s))
    layer.update(replay(requests[:REPLAYED_REQUESTS]))
    hits = sum(r["stats"]["hits"] for r in answered)
    blocks = sum(len(r["entries"]) for r in answered)
    layer.update({
        "native.load_s": setup["load_s"],
        "service.ready_s": median(ready),
        "service.transport_ms": _quantile(measured, 0.50) * 1e3 - layer["service.batch_ms"],
        "service.cache_hit_frac": hits / blocks if blocks else 0.0,
        "service.worker_retries": sum(
            e.get("worker_retries", 0) for r in answered for e in r["entries"]
        ),
        "service.degraded": sum(r["stats"]["degraded"] for r in answered),
        "service.shed": sum(r["stats"]["shed"] for r in answered),
        "verify.certified": blocks,
        "trace.overhead_blocks_per_s": d.rate(requests, traced=True)[0] - blocks_per_s,
        "failed_frac": failed / max(1, attempted),
    })
    info["traced_samples"] = traced_units
    return layer, attempted, failed, info, tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2

    # Everything the run builds or writes stays inside the checkout,
    # the C compiler's temporary files included.
    build_dir = os.path.join(ROOT, ".bench_build")
    workdir = os.path.join(build_dir, "perfbench")
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(build_dir, "repro-native")
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    env = environment()
    print(json.dumps({"env": env}), flush=True)
    trace = bool(args.trace)
    if env["engine"] != "native":
        # A fallback to the Python engine is a failed run, not a slow one.
        metrics, attempted, failed, info, tracer = (
            {}, 1, 1, {"errors": ["the native engine fell back to fast"]}, None
        )
    elif args.workload == "service":
        setup = measure_setup(args.workload)
        metrics, attempted, failed, info, tracer = run_service(
            args.seed, args.seconds, trace, setup, workdir
        )
    else:
        setup = measure_setup(args.workload)
        metrics, attempted, failed, info, tracer = run_blocks(
            args.workload, args.seed, args.seconds, trace, setup
        )
    stem = os.path.join(workdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of(name)}
            for name in (PER_LAYER if trace else END_TO_END)
            if name in metrics
        },
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, **result}, fh, indent=2)
    for error in info.get("errors", []):
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"info": info}), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Import the benchmark as a package from the checkout root, never its
    # modules as top-level names from this directory.
    sys.path[0] = ROOT
    sys.exit(main())
