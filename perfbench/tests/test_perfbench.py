"""Tests of the benchmark itself: determinism, seeds, the source-text
round trip, span bookkeeping, and the ``BENCHMARK.json`` contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import corpus, run  # noqa: E402
from perfbench.blocks import BlockWorkload  # noqa: E402
from perfbench.service import Daemon, Drive, Segment, drive  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from repro.frontend import lower_program, parse_program  # noqa: E402
from repro.opt import optimize  # noqa: E402
from repro.synth.population import generate_from_params, sample_population_params  # noqa: E402
from repro.telemetry import PRUNE_KINDS  # noqa: E402

SMALL = 40


def _block_counts(workload: str, seed: int) -> dict:
    if workload == "population":
        items = corpus.population_corpus(seed, blocks=SMALL)
    else:
        items = corpus.deep_search_corpus(seed, blocks=SMALL)
    m = BlockWorkload(workload, items).measure(0, trace=False)
    assert m.errors == []
    return m.deterministic()


@pytest.mark.parametrize("workload", ["population", "deep-search"])
def test_block_workloads_repeat_exactly(workload):
    first, second = _block_counts(workload, 5), _block_counts(workload, 5)
    for key in ("nops_total", "optimal_frac", "sched.omega_calls"):
        assert first[key] == second[key]
    assert first["verify.certified"] > 0


@pytest.mark.parametrize("workload", ["population", "deep-search"])
def test_another_seed_gives_another_corpus_that_certifies(workload):
    make = corpus.population_corpus if workload == "population" else corpus.deep_search_corpus
    assert make(5, blocks=SMALL) != make(6, blocks=SMALL)
    counts = _block_counts(workload, 6)
    assert counts["verify.certified"] > 0


def _service_counts(requests) -> tuple:
    with tempfile.TemporaryDirectory() as workdir:
        daemon = Daemon(ROOT, workdir, "test")
        try:
            url = daemon.wait_ready()
            d = drive(url, requests, 1, False, Tracer(enabled=False), counted=len(requests))
        finally:
            assert daemon.stop() == 0
    assert d.errors == []
    entries = [e for r in d.replies for e in r["entries"]]
    return (
        sum(e["total_nops"] for e in entries),
        sum(e["completed"] for e in entries) / len(entries),
        sum(e["omega_calls"] for e in entries),
    )


def test_service_repeats_exactly_and_seeds_differ():
    requests = corpus.service_requests(5, requests=12)
    assert _service_counts(requests) == _service_counts(requests)
    other = corpus.service_requests(6, requests=12)
    assert [s.text for b in other for s in b] != [s.text for b in requests for s in b]
    _service_counts(other)


def test_population_source_lowers_to_the_generated_block():
    for params in sample_population_params(300, 1990):
        program = parse_program(corpus.population_source(params))
        block = optimize(lower_program(program, f"pop-{params.index}")).block
        assert block == generate_from_params(params).block


def test_self_times_sum_to_the_root():
    tracer = Tracer(enabled=True)

    def unit():
        tracer.call("a.x", lambda: tracer.call("a.y", sum, range(1000)))
        tracer.call("b.z", sorted, range(1000))

    tracer.root("block", 0, unit)
    own = tracer.self_times()
    assert set(own) == {"block", "a.x", "a.y", "b.z"}
    assert all(seconds >= 0 for seconds in own.values())
    assert sum(own.values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]


def test_layer_metrics_check_the_spans_against_the_outside_clock():
    tracer = Tracer(enabled=True)
    tracer.root("block", 0, tracer.call, "ir.x", sum, range(10_000))
    covered = tracer.root_seconds()
    metrics = run._layer_metrics(tracer, 1, covered * 1.01)
    assert metrics["ir.x_s"] + metrics["unattributed_s"] == pytest.approx(covered * 1.01)
    for wrong in (covered * 0.5, covered * 1.5):
        with pytest.raises(RuntimeError):
            run._layer_metrics(tracer, 1, wrong)


def test_service_rate_scales_each_segment_to_the_reference_speed():
    requests = [[None] * 3] * 4
    d = Drive([0, 0, 1, 2], [0.1, 0.2, 0.3, 0.4], [{}] * 4, [None] * 4)
    d.segments = [Segment(False, 1.0, 1.0), Segment(True, 1.0, 1.0), Segment(False, 1.0, 0.5)]
    d.sent = 4
    blocks_per_s, latencies = d.rate(requests, traced=False)
    assert blocks_per_s == pytest.approx(9 / 1.5)
    assert latencies == pytest.approx([0.1, 0.2, 0.2])
    assert d.rate(requests, traced=True)[0] == pytest.approx(3.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.root("block", 0, tracer.call, "a.x", sum, [1, 2]) == 3
    assert tracer.spans == []


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert run.PRUNE_KINDS == PRUNE_KINDS


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "population",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
